"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All checks are exact (integer/rational equality); the time budgets are the
stated ones and are asserted as upper bounds.  Shared pipelines are rebuilt
inside the timed window where the criterion covers the computation itself.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import charnum
from charnum.descend import (
    DescendantEngine,
    DescendantSpec,
    dimension_valid,
    reduce_special,
)
from charnum.geometry import builtin_geometry
from charnum.gw import sample_wdvv_residuals, wdvv_solve
from charnum.metric import deformed_metric, substitute_metric
from charnum.oracles import hurwitz_bruteforce
from charnum.planecurves import (
    charnum_genus0,
    charnum_genus1,
    charnum_genus1_virtual_route,
    PLANE,
    tangency_expand,
)
from charnum.quadric import hurwitz, quadric_genus0, quadric_genus1
from charnum.seeds import default_gw_seeds


class Budget:
    def __init__(self, number: int, label: str, seconds: float):
        self.number = number
        self.label = label
        self.seconds = seconds
        self.passed = False

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"acceptance criterion {self.number:02d} ({self.label}): {status} [{elapsed:.2f}s]")
        if exc_type is None:
            assert elapsed < self.seconds, f"budget exceeded: {elapsed:.2f}s >= {self.seconds}s"
        return False


def test_criterion_01_seed_reproduction(p2):
    with Budget(1, "seed reproduction", 1.0):
        gw = wdvv_solve(p2, {((1,), (2, 2)): Fraction(1)}, 1)
        table = charnum_genus0(gw, 1)
        assert gw.lookup((1,), (2, 2)) == 1
        assert table.coeff((1,), (2, 0, 0)) == 1


def test_criterion_02_wdvv_overdetermination(p2, quadric):
    with Budget(2, "WDVV overdetermination", 30.0):
        rng = random.Random(0xC0FFEE)
        gw2 = wdvv_solve(p2, default_gw_seeds(p2), 5)
        for inst, resid in sample_wdvv_residuals(p2, gw2, 50, rng):
            assert resid == 0, inst.describe()
        gwq = wdvv_solve(quadric, default_gw_seeds(quadric), 6)
        for inst, resid in sample_wdvv_residuals(quadric, gwq, 50, rng):
            assert resid == 0, inst.describe()


def test_criterion_03_deformed_metric_fidelity():
    with Budget(3, "deformed-metric fidelity", 5.0):
        one = {(0, 0): Fraction(1)}
        _, up2 = deformed_metric(builtin_geometry("p2"))
        assert up2.exp_y0 == 2
        expect_p2 = [
            [{}, {}, one],
            [{}, one, {(1, 0): Fraction(2)}],
            [one, {(1, 0): Fraction(2)}, {(2, 0): Fraction(2), (0, 1): Fraction(2)}],
        ]
        for i in range(3):
            for j in range(3):
                assert up2.entry(i, j) == expect_p2[i][j], (i, j)
        _, upg = deformed_metric(builtin_geometry("gr24"))
        sub = substitute_metric(
            upg, {"y1": [(1, "v")], "y2": [], "y3": [], "y4": [], "y5": []}, ("v",)
        )
        v = lambda k, c: {(k,): Fraction(c)}
        expect_g = [
            [{}, {}, {}, {}, {}, v(0, 1)],
            [{}, {}, {}, {}, v(0, 1), v(1, 2)],
            [{}, {}, v(0, 1), {}, v(1, 2), v(2, 2)],
            [{}, {}, {}, v(0, 1), v(1, 2), v(2, 2)],
            [{}, v(0, 1), v(1, 2), v(1, 2), v(2, 4), v(3, Fraction(8, 3))],
            [v(0, 1), v(1, 2), v(2, 2), v(2, 2), v(3, Fraction(8, 3)), v(4, Fraction(4, 3))],
        ]
        for i in range(6):
            for j in range(6):
                assert sub.entry(i, j) == expect_g[i][j], (i, j)
        for name in ("p1", "p2", "p3", "p4", "p5", "p6", "p1xp1", "gr24"):
            lo, up = deformed_metric(builtin_geometry(name))
            assert lo.matmul(up).is_identity(), name


def test_criterion_04_cross_path_equality(p2):
    with Budget(4, "genus-0 cross-path", 120.0):
        gw = wdvv_solve(p2, default_gw_seeds(p2), 3)
        pipeline = charnum_genus0(gw, 3)
        engine = DescendantEngine(p2, gw)
        for d in (1, 2, 3):
            for c in range((3 * d) // 2 + 1):
                for b in range(3 * d - 2 * c):
                    a = 3 * d - 1 - b - 2 * c
                    direct = sum(
                        (m * engine.value(s) for s, m in tangency_expand(a, b, c, d)),
                        Fraction(0),
                    )
                    assert direct == pipeline.coeff((d,), (a, b, c)), (d, a, b, c)


def _random_valid_specs(p2, rng, count):
    weights = {(0, 2): 1, (1, 1): 1, (1, 2): 2, (2, 1): 2, (2, 2): 3}
    items = sorted(weights)
    out = []
    while len(out) < count:
        d = rng.randint(1, 2)
        budget = 3 * d - 1
        ins = []
        while budget > 0:
            pick = items[rng.randrange(len(items))]
            if weights[pick] <= budget:
                ins.append(pick)
                budget -= weights[pick]
        for _ in range(rng.randint(0, 2)):
            ins.append((0, 1))  # weight-0 divisor insertions
        spec = DescendantSpec(0, (d,), tuple(ins))
        if dimension_valid(p2, spec):
            out.append(spec)
    return out


def test_criterion_05_reduction_properties(p2):
    with Budget(5, "string/dilaton/divisor properties", 60.0):
        gw = wdvv_solve(p2, default_gw_seeds(p2), 2)
        engine = DescendantEngine(p2, gw)
        rng = random.Random(1729)
        for spec in _random_valid_specs(p2, rng, 200):
            base = engine.value(spec)
            with_string = DescendantSpec(0, spec.beta, spec.insertions + ((0, 0),))
            assert engine.value(with_string) == 0
            with_dilaton = DescendantSpec(0, spec.beta, spec.insertions + ((1, 0),))
            assert engine.value(with_dilaton) == -2 * base
            with_divisor = DescendantSpec(0, spec.beta, spec.insertions + ((0, 1),))
            assert engine.value(with_divisor) == spec.beta[0] * base


def test_criterion_06_special_degree0_values(p2):
    with Budget(6, "degree-0 one-point values", 1.0):
        kind, val = reduce_special(p2, DescendantSpec(1, (0,), ((1, 0),)))
        assert kind == "value" and val == Fraction(p2.euler, 24) == Fraction(1, 8)
        kind, val = reduce_special(p2, DescendantSpec(1, (0,), ((0, 1),)))
        assert kind == "value"
        assert val == Fraction(-1, 24) * p2.chern_divisor[0] == Fraction(-1, 8)


def test_criterion_07_hurwitz_oracle():
    with Budget(7, "Hurwitz vs brute force", 60.0):
        table = hurwitz(1, 6)
        assert table[(0, 2, 2)] == Fraction(1, 2)
        for g in (0, 1):
            for d in range(1, 7):
                b = 2 * d + 2 * g - 2
                assert table.get((g, d, b), Fraction(0)) == hurwitz_bruteforce(d, b), (g, d)


def test_criterion_08_genus1_dual_route(p2):
    with Budget(8, "genus-1 dual route", 180.0):
        gw = wdvv_solve(p2, default_gw_seeds(p2), 4)
        g0 = charnum_genus0(gw, 4)
        seeds = {(1,): 0, (2,): 0, (3,): 1, (4,): 225}
        direct = charnum_genus1(g0, seeds, 4)
        virtual = charnum_genus1_virtual_route(gw, seeds, 4)
        assert direct == virtual
        for (deg, mono), val in direct.entries.items():
            assert val.denominator == 1 and val >= 0, (deg, mono, val)


def test_criterion_09_cover_polynomial_anchors():
    with Budget(9, "E/H anchors", 5.0):
        e_table, h_table = (PLANE.cover({(2, 2 * g + 2): Fraction(1, 2)}, 2) for g in (1, 2))
        assert Fraction(1, 2) / (2 * 2 * 2) == Fraction(45, 720)
        assert e_table.coeff((2,), (0, 6, 0)) == Fraction(45, 2)
        # Genus-g double covers of a line form a 2g+4 dimensional family (2
        # for the line, 2g+2 for the branch points), so every term sits at
        # a+b+2c = 2g+4: 6 for E, 8 for H, one above the degree-2 virtual
        # dimension 7 (the `Surface.excess` docstring shows the genus-2
        # correction needs exactly that).
        for genus, table in ((1, e_table), (2, h_table)):
            bad = [m for (_, m) in table.entries if m[0] + m[1] + 2 * m[2] != 2 * genus + 4]
            assert not bad, (
                f"genus-{genus} double covers of a line satisfy {2 * genus + 4} "
                f"conditions; offending strata: {bad}"
            )


def test_criterion_10_two_tail_identity(p2):
    with Budget(10, "genus-2 two-tail identity", 60.0):
        gw = wdvv_solve(p2, default_gw_seeds(p2), 4)
        g0 = charnum_genus0(gw, 4)
        P = PLANE.point
        operator_form = P(P(g0)).scale(Fraction(1, 2 * 24 * 24))

        def hand_expansion(d, a, b, c):
            def n0(aa, bb, cc):
                if min(aa, bb, cc) < 0:
                    return Fraction(0)
                return g0.coeff((d,), (aa, bb, cc))

            both_on_lines = 4 * comb(b, 2) * d * d * n0(a, b - 2, c)
            line_and_pair = 4 * b * (b - 1) * (b - 2) * d * n0(a + 1, b - 3, c)
            line_and_flag = 4 * b * c * d * n0(a + 1, b - 1, c - 1)
            two_pairs = 2 * b * (b - 1) * (b - 2) * (b - 3) * n0(a + 2, b - 4, c)
            pair_and_flag = 8 * comb(b, 2) * c * n0(a + 2, b - 2, c - 1)
            two_flags = 4 * comb(c, 2) * n0(a + 2, b, c - 2)
            return (
                both_on_lines + line_and_pair + line_and_flag + two_pairs + pair_and_flag + two_flags
            ) / (24 * 24)

        for d in (1, 2, 3, 4):
            top = 3 * d + 1
            for c in range(top // 2 + 1):
                for b in range(top - 2 * c + 1):
                    a = top - b - 2 * c
                    assert operator_form.coeff((d,), (a, b, c)) == hand_expansion(d, a, b, c)


def test_criterion_11_quadric_symmetry(quadric):
    with Budget(11, "quadric swap symmetry", 120.0):
        gw = wdvv_solve(quadric, default_gw_seeds(quadric), 5)
        g0 = quadric_genus0(gw, 5)
        for ((d1, d2), mono), val in g0.entries.items():
            assert g0.coeff((d2, d1), mono) == val
        from charnum.seeds import load_genus1_seeds, packaged_seed_text

        seeds = load_genus1_seeds(packaged_seed_text("p1xp1-genus1"), quadric)
        g1 = quadric_genus1(gw, seeds, 5)
        assert g1.entries
        for ((d1, d2), mono), val in g1.entries.items():
            assert g1.coeff((d2, d1), mono) == val


def test_criterion_12_determinism(tmp_path):
    with Budget(12, "byte-identical cold runs", 60.0):
        cmd = [
            sys.executable,
            "-m",
            "charnum.cli",
            "compute",
            "--target",
            "p2",
            "--genus",
            "0",
            "--dmax",
            "4",
            "--format",
            "json",
        ]
        # the children import the same charnum as this process, installed or
        # not, and write no bytecode, so that both runs start cold
        src = Path(charnum.__file__).resolve().parent.parent
        env = {
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": str(src),
            "PYTHONDONTWRITEBYTECODE": "1",
            "CHARNUM_CACHE_DIR": str(tmp_path),
            "HOME": str(tmp_path),
        }
        outputs = []
        for _ in range(2):
            proc = subprocess.run(cmd, capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr.decode(errors="replace")
            outputs.append(proc.stdout)
        first, second = outputs
        assert first == second
        records = json.loads(first)
        assert {"d": 4, "a": 11, "b": 0, "c": 0, "value": "620"} in records
