from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from charnum.descend import (
    DescendantEngine,
    DescendantSpec,
    _ab_partitions,
    dimension_valid,
    genus0_integrated_residual,
    genus0_pde_residual,
    genus0_tangency_potential,
    genus1_degree0_constants,
    genus1_tangency_potential,
    reduce_special,
)
from charnum.geometry import builtin_geometry
from charnum.gw import class_splits, multiset_splits, wdvv_solve
from charnum.oracles import hurwitz_bruteforce
from charnum.seeds import default_gw_seeds, load_genus1_seeds, packaged_seed_text
from charnum.series import SeriesTable


@pytest.fixture(scope="module")
def engine(p2, gw_p2):
    return DescendantEngine(p2, gw_p2)


@pytest.fixture(scope="module")
def gamma0_p2(p2, gw_p2):
    return genus0_tangency_potential(p2, gw_p2, 3)


# -- special reductions -------------------------------------------------------


def test_string_equation(p2, engine):
    spec = DescendantSpec(0, (2,), ((0, 0),) + ((0, 2),) * 5)
    assert engine.value(spec) == 0
    kind, *_ = reduce_special(p2, spec)
    assert kind == "value"


def test_dilaton_factor_genus0(p2):
    kind, factor, red = reduce_special(p2, DescendantSpec(0, (1,), ((1, 0), (0, 2), (0, 2))))
    assert kind == "factor" and factor == -2
    assert red.insertions == ((0, 2), (0, 2))


def test_divisor_factor(p2):
    kind, factor, red = reduce_special(p2, DescendantSpec(0, (3,), ((0, 1), (0, 2))))
    assert kind == "factor" and factor == 3


def test_special_degree0_dilaton_value(p2):
    # chi(P^2)/24, computed from the geometry data
    kind, val = reduce_special(p2, DescendantSpec(1, (0,), ((1, 0),)))
    assert kind == "value" and val == Fraction(p2.euler, 24) == Fraction(1, 8)


def test_special_degree0_divisor_value(p2):
    kind, val = reduce_special(p2, DescendantSpec(1, (0,), ((0, 1),)))
    assert kind == "value"
    assert val == Fraction(-1, 24) * p2.chern_divisor[0] == Fraction(-1, 8)


def test_degree0_multipoint_vanishing(p2):
    for ins in [((0, 1), (1, 0)), ((0, 1), (0, 1)), ((0, 2),), ((1, 1),)]:
        kind, val = reduce_special(p2, DescendantSpec(1, (0,), ins))
        assert kind == "value" and val == 0, ins


def test_quadric_special_values(quadric):
    kind, val = reduce_special(quadric, DescendantSpec(1, (0, 0), ((1, 0),)))
    assert (kind, val) == ("value", Fraction(1, 6))
    kind, val = reduce_special(quadric, DescendantSpec(1, (0, 0), ((0, 1),)))
    assert (kind, val) == ("value", Fraction(-1, 12))


# -- the genus-0 recursion ----------------------------------------------------


def test_bottoms_out_on_gw(engine):
    assert engine.value(DescendantSpec(0, (1,), ((0, 2), (0, 2)))) == 1
    assert engine.value(DescendantSpec(0, (3,), ((0, 2),) * 8)) == 12


def test_degenerate_inputs(engine):
    assert engine.value(DescendantSpec(0, (2,), ((0, 2),) * 3)) == 0  # gate
    with pytest.raises(ValueError):
        DescendantSpec(0, (0,), ((0, 2),))


def test_first_tangency_values(engine):
    # conics: <pt^4 tau1(h)> = 1, so the virtual count through 4 points
    # tangent to a line is 1 + 1 = 2; binomial inversion of the classical
    # count through 3 points tangent to 2 lines (4) gives <pt^3 tau1(h)^2> = 1
    assert engine.value(DescendantSpec(0, (2,), ((0, 2),) * 4 + ((1, 1),))) == 1
    assert engine.value(DescendantSpec(0, (2,), ((0, 2),) * 3 + ((1, 1),) * 2)) == 1


def test_flag_on_a_line(engine):
    # <tau1(pt)>_1 = 1: the unique line tangent to a given line at a given
    # point; exercises the padding to three marks
    assert engine.value(DescendantSpec(0, (1,), ((1, 2),))) == 1


def test_higher_psi_power(engine):
    # <tau2(h)>_1 = -3 by one unrolling: the three merge terms give
    # <tau1(h) tau0(pt)> = -1 and twice -<tau1(pt)> = -1, no splits in
    # degree 1
    assert engine.value(DescendantSpec(0, (1,), ((2, 1),))) == -3
    assert engine.value(DescendantSpec(0, (1,), ((1, 1), (0, 2)))) == -1
    # dimension gate kills mismatched psi weight
    assert engine.value(DescendantSpec(0, (1,), ((2, 2), (0, 2), (0, 1)))) == 0


def test_insertion_order_independence(engine):
    a = engine.value(DescendantSpec(0, (2,), ((1, 1), (0, 2), (0, 2), (0, 2), (1, 1))))
    b = engine.value(DescendantSpec(0, (2,), ((0, 2), (1, 1), (1, 1), (0, 2), (0, 2))))
    assert a == b


def test_choice_independence_exhaustive(p2, gw_p2):
    # every admissible (p1, p2, p3) gives the same value: all specs with
    # <= 5 insertions and d <= 3 that pass the reductions
    engine = DescendantEngine(p2, gw_p2)
    rng = random.Random(5)
    pool = []
    for d in (1, 2, 3):
        for n in (3, 4, 5):
            for _ in range(40):
                ins = tuple(sorted((rng.randint(0, 2), rng.choice((1, 2))) for _ in range(n)))
                spec = DescendantSpec(0, (d,), ins)
                if dimension_valid(p2, spec) and spec.psi_total and spec not in pool:
                    pool.append(spec)
    assert pool, "sampler found no admissible specs"
    for spec in pool:
        kind, factor, red = reduce_special(p2, spec)
        ins = red.insertions
        if len(ins) < 3 or red.psi_total == 0:
            continue
        values = set()
        top = max(m for m, _ in ins)
        for p1 in range(len(ins)):
            if ins[p1][0] != top:
                continue
            rest = [t for t in range(len(ins)) if t != p1]
            for p2_, p3_ in combinations(rest, 2):
                values.add(engine.value_with_choice(red, (p1, p2_, p3_)))
        assert len(values) == 1, (spec, values)


def test_agreement_with_potential(engine, gamma0_p2):
    # every first-descendant stratum of the potential equals the recursion
    for (beta, mono), val in sorted(gamma0_p2.entries.items()):
        a2, b1, b2 = mono
        spec = DescendantSpec(0, beta, ((0, 2),) * a2 + ((1, 1),) * b1 + ((1, 2),) * b2)
        assert engine.value(spec) == val, (beta, mono)


def test_all_m_zero_equals_gw(engine, gw_p2):
    for d in (1, 2, 3):
        n = 3 * d - 1
        assert engine.value(DescendantSpec(0, (d,), ((0, 2),) * n)) == gw_p2.lookup(
            (d,), [2] * n
        )


class UnprunedEngine(DescendantEngine):
    """Reference: the splitting sum visiting every pair (e, f) with
    gamma^{ef} != 0 and expanding every cup product afresh, leaving the
    dimension check to `value()`."""

    def _recurse(self, spec, choice=None):
        geom = self.geom
        ins = list(spec.insertions)
        if len(ins) < 3:
            dv = next(i for i in geom.divisors if geom.degree_of(i, spec.beta))
            padded = DescendantSpec(0, spec.beta, tuple(ins) + ((0, dv),))
            return self._recurse(padded, choice) / geom.degree_of(dv, spec.beta)
        if choice is None:
            p1 = max(range(len(ins)), key=lambda t: (ins[t][0], -ins[t][1]))
            p2, p3 = sorted(t for t in range(len(ins)) if t != p1)[:2]
        else:
            p1, p2, p3 = choice
        (m1, g1), (m2, g2), (m3, g3) = ins[p1], ins[p2], ins[p3]
        m1 -= 1
        others = tuple(ins[t] for t in range(len(ins)) if t not in (p1, p2, p3))
        beta = spec.beta
        total = Fraction(0)
        for k, c in geom.cup_classes((g2, g3)).items():
            total += c * self.value(DescendantSpec(0, beta, others + ((m1, g1), (m2 + m3, k))))
        for k, c in geom.cup_classes((g1, g2)).items():
            total -= c * self.value(DescendantSpec(0, beta, others + ((m1 + m2, k), (m3, g3))))
        for k, c in geom.cup_classes((g1, g3)).items():
            total -= c * self.value(DescendantSpec(0, beta, others + ((m1 + m3, k), (m2, g2))))
        ginv = geom.pairing_inv
        pairs = [(e, f) for e in range(geom.rank) for f in range(geom.rank) if ginv[e][f]]
        for beta1, beta2 in class_splits(beta, nonzero=True):
            for s1, s2, w_split in multiset_splits(others):
                for (a1, b1), w1 in _ab_partitions(s1 + ((m1, g1),), forced=()):
                    for (a2, b2), w2 in _ab_partitions(s2, forced=((m2, g2), (m3, g3))):
                        for e, f in pairs:
                            lhs = self._side(beta1, a1, b1, e)
                            rhs = self._side(beta2, a2, b2, f)
                            total += w_split * w1 * w2 * ginv[e][f] * lhs * rhs
        return total

    def _side(self, beta, a_marks, b_marks, gluing_class):
        mb = sum(m - 1 for m, _ in b_marks)
        b_classes = tuple(c for _, c in b_marks)
        out = Fraction(0)
        for k, c in self.geom.cup_classes(b_classes + (gluing_class,)).items():
            out += c * self.value(DescendantSpec(0, beta, a_marks + ((mb, k),)))
        return out


def _sample_specs(geom, classes, count, seed, max_marks=5):
    """Distinct dimension-valid genus-0 specs with psi powers <= 3."""
    rng = random.Random(seed)
    out = []
    for _ in range(4000):
        beta = rng.choice(classes)
        n = rng.randint(1, max_marks)
        ins = tuple((rng.randint(0, 3), rng.randrange(1, geom.rank)) for _ in range(n))
        spec = DescendantSpec(0, beta, ins)
        if spec.psi_total and dimension_valid(geom, spec) and spec not in out:
            out.append(spec)
            if len(out) == count:
                break
    return out


@pytest.mark.parametrize(
    "name, dmax, classes, padded",
    [
        ("p2", 3, [(1,), (2,), (3,)], DescendantSpec(0, (2,), ((3, 2), (0, 2)))),
        ("p1xp1", 3, [(1, 0), (1, 1), (2, 1), (1, 2)], DescendantSpec(0, (1, 1), ((2, 3),))),
        ("p3", 2, [(1,), (2,)], DescendantSpec(0, (2,), ((3, 3), (1, 3)))),
        ("gr24", 1, [(1,)], DescendantSpec(0, (1,), ((3, 4),))),
    ],
)
def test_pruned_splitting_sum_matches_unpruned_reference(name, dmax, classes, padded):
    geom = builtin_geometry(name)
    gw = wdvv_solve(geom, default_gw_seeds(geom), dmax)
    pruned, reference = DescendantEngine(geom, gw), UnprunedEngine(geom, gw)
    specs = [padded] + _sample_specs(geom, classes, 12, seed=len(name))
    assert dimension_valid(geom, padded) and len(reduce_special(geom, padded)[2].insertions) < 3
    assert any(max(m for m, _ in s.insertions) == 3 for s in specs)
    nonzero = 0
    for spec in specs:
        value = pruned.value(spec)
        assert value == reference.value(spec), spec.describe()
        nonzero += value != 0
    assert nonzero >= len(specs) // 3, "the sampled specs should mostly be nonzero"


def _spy(engine):
    """Record every spec the engine's recursion passes to `value()`."""
    seen = []
    inner = engine.value
    engine.value = lambda spec: seen.append(spec) or inner(spec)
    return seen


def test_splitting_sum_skips_dimension_invalid_sides(p2, gw_p2):
    spec = DescendantSpec(0, (4,), ((0, 2),) * 6 + ((1, 1),) * 3 + ((2, 1),))
    pruned, reference = DescendantEngine(p2, gw_p2), UnprunedEngine(p2, gw_p2)
    seen, ref_seen = _spy(pruned), _spy(reference)
    assert pruned.value(spec) == reference.value(spec) != 0
    assert len(seen) > 100
    assert all(dimension_valid(p2, s) for s in seen)
    # the unpruned sum does ask for such sides, so the spy has something to catch
    assert sum(not dimension_valid(p2, s) for s in ref_seen) > len(seen)


@pytest.fixture(scope="module")
def engine_p2_d6(p2):
    return DescendantEngine(p2, wdvv_solve(p2, default_gw_seeds(p2), 6))


@pytest.mark.parametrize(
    "beta, ins, value",
    [
        ((6,), ((0, 2),) * 9 + ((1, 1),) * 8, -525939120),
        ((6,), ((0, 2),) * 11 + ((1, 1),) * 6, 3680184240),
        ((6,), ((0, 2),) * 14 + ((2, 1), (1, 1)), 59648544),
        ((5,), ((0, 2),) * 6 + ((1, 1),) * 8, -8006040),
    ],
)
def test_heavy_plane_descendants(engine_p2_d6, beta, ins, value):
    assert engine_p2_d6.value(DescendantSpec(0, beta, ins)) == value


# -- the first-descendant differential equations ------------------------------


def test_pde_residual_zero_all_indices(p2, gamma0_p2):
    for k in (1, 2):
        for i in (1, 2):
            for j in (i, 2):
                assert genus0_pde_residual(p2, gamma0_p2, k, i, j).is_zero(), (k, i, j)


def test_integrated_residual_zero(p2, gamma0_p2):
    assert genus0_integrated_residual(p2, gamma0_p2, 1).is_zero()
    assert genus0_integrated_residual(p2, gamma0_p2, 2).is_zero()


def test_perturbed_potential_flagged(p2, gamma0_p2):
    key = ((3,), (8, 0, 0))
    bumped = dict(gamma0_p2.entries)
    bumped[key] = bumped.get(key, Fraction(0)) + 1
    bad = SeriesTable(gamma0_p2.space, gamma0_p2.dmax, bumped)
    resid = genus0_pde_residual(p2, bad, 1, 1, 1)
    assert not resid.is_zero()
    assert any(deg == (3,) for (deg, _) in resid.entries)


def test_quadric_potential_residuals(quadric, gw_quadric):
    g0 = genus0_tangency_potential(quadric, gw_quadric, 3)
    for k in (1, 2, 3):
        assert genus0_pde_residual(quadric, g0, k, 1, 2).is_zero(), k
    assert genus0_integrated_residual(quadric, g0, 3).is_zero()


def _partials_during(monkeypatch, run) -> list[tuple[SeriesTable, str]]:
    """(table, variable) for every `SeriesTable.partial` call of run()."""
    calls = []
    partial = SeriesTable.partial

    def spy(self, var):
        calls.append((self, var))  # holds the table, so no id is reused
        return partial(self, var)

    monkeypatch.setattr(SeriesTable, "partial", spy)
    run()
    monkeypatch.undo()
    return calls


def _repeats(calls) -> int:
    return sum(n - 1 for n in Counter((id(t), var) for t, var in calls).values())


@pytest.mark.parametrize(
    "name, dmax, box", [("p1xp1", 5, (3, 2)), ("p2", 5, None), ("p3", 3, None), ("gr24", 1, None)]
)
def test_genus0_potential_differentiates_no_table_twice(monkeypatch, name, dmax, box):
    geom = builtin_geometry(name)
    gw = wdvv_solve(geom, default_gw_seeds(geom), dmax)
    calls = _partials_during(monkeypatch, lambda: genus0_tangency_potential(geom, gw, dmax, box))
    assert calls
    assert _repeats(calls) == 0


@pytest.mark.parametrize("name, dmax, box", [("p1xp1", 5, (3, 2)), ("p2", 5, None)])
def test_genus1_potential_differentiates_no_table_twice(monkeypatch, name, dmax, box):
    geom = builtin_geometry(name)
    gw = wdvv_solve(geom, default_gw_seeds(geom), dmax)
    seeds = load_genus1_seeds(packaged_seed_text(f"{name}-genus1"), geom)
    g0 = genus0_tangency_potential(geom, gw, dmax, box)
    calls = _partials_during(monkeypatch, lambda: genus1_tangency_potential(geom, g0, seeds, dmax, box=box))
    assert calls
    assert _repeats(calls) == 0


# -- genus 1 -------------------------------------------------------------------


def test_degree0_constants(p2, quadric):
    assert genus1_degree0_constants(p2) == {1: Fraction(-1, 8)}
    assert genus1_degree0_constants(quadric) == {1: Fraction(-1, 12), 2: Fraction(-1, 12)}


def test_genus1_seed_slice(p2, gw_p2):
    g0 = genus0_tangency_potential(p2, gw_p2, 3)
    g1 = genus1_tangency_potential(p2, g0, {(3,): Fraction(1)}, 3)
    assert g1.coeff((3,), (9, 0, 0)) == 1  # the ingested slice comes back
    assert g1.coeff((1,), (3, 0, 0)) == 0


def test_genus1_k_overdetermination(p2, gw_p2):
    g0 = genus0_tangency_potential(p2, gw_p2, 3)
    genus1_tangency_potential(p2, g0, {(3,): Fraction(1)}, 3, check_overdetermined=True)


def test_genus1_missing_seed_defaults_to_zero(p2, gw_p2):
    # absent classes read as zero; degree-3 strata then solve to honest values
    g0 = genus0_tangency_potential(p2, gw_p2, 2)
    g1 = genus1_tangency_potential(p2, g0, {}, 2)
    assert g1.coeff((1,), (3, 0, 0)) == 0


def test_gr24_first_descendants_match_engine():
    # four x-slots and five y-slots: the widest built-in variable shape
    g = builtin_geometry("gr24")
    from charnum.seeds import default_gw_seeds

    gw = wdvv_solve(g, default_gw_seeds(g), 1)
    pot = genus0_tangency_potential(g, gw, 1)
    assert pot.entries, "degree-1 strata expected"
    for k in (1, 2, 5):
        assert genus0_pde_residual(g, pot, k, 1, 1).is_zero(), k
    assert genus0_integrated_residual(g, pot, 1).is_zero()
    engine = DescendantEngine(g, gw)
    ts_nondiv = (2, 3, 4, 5)
    for (beta, mono), val in sorted(pot.entries.items()):
        xs, ys = mono[:4], mono[4:]
        ins = tuple((0, c) for c, n in zip(ts_nondiv, xs) for _ in range(n)) + tuple(
            (1, k + 1) for k, n in enumerate(ys) for _ in range(n)
        )
        assert engine.value(DescendantSpec(0, beta, ins)) == val, (beta, mono)


def test_p3_first_descendants_match_engine():
    p3 = builtin_geometry("p3")
    from charnum.seeds import default_gw_seeds

    gw = wdvv_solve(p3, default_gw_seeds(p3), 2)
    pot = genus0_tangency_potential(p3, gw, 2)
    for k in (1, 2, 3):
        assert genus0_pde_residual(p3, pot, k, 1, 1).is_zero(), k
    engine = DescendantEngine(p3, gw)
    for (beta, mono), val in sorted(pot.entries.items()):
        xs, ys = mono[:2], mono[2:]
        ins = tuple((0, c) for c, n in zip((2, 3), xs) for _ in range(n)) + tuple(
            (1, k + 1) for k, n in enumerate(ys) for _ in range(n)
        )
        assert engine.value(DescendantSpec(0, beta, ins)) == val, (beta, mono)


def test_p1_hurwitz_through_both_recursions():
    p1 = builtin_geometry("p1")
    gw = wdvv_solve(p1, {((1,), ()): Fraction(1)}, 4)
    g0 = genus0_tangency_potential(p1, gw, 4)
    g1 = genus1_tangency_potential(p1, g0, {}, 4, check_overdetermined=True)
    for d in range(1, 5):
        for g, table in ((0, g0), (1, g1)):
            b = 2 * d + 2 * g - 2
            assert table.coeff((d,), (b,)) == hurwitz_bruteforce(d, b).count, (g, d)
