from __future__ import annotations

import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from charnum.descend import DescendantEngine, DescendantSpec
from charnum.geometry import BUILTIN_NAMES, TargetGeometry, builtin_geometry, in_box, load_geometry
from charnum.gw import (
    GWTable,
    Instance,
    InsufficientSeeds,
    SeedConflict,
    canonical_keys,
    class_splits,
    multiset_splits,
    parse_seed_records,
    sample_wdvv_residuals,
    wdvv_instance_residual,
    wdvv_solve,
)
from charnum.seeds import default_gw_seeds, packaged_seed_text
from test_quadric import BOXES


def test_p2_classical_counts(gw_p2):
    # rational plane curves through 3d-1 points
    expected = {1: 1, 2: 1, 3: 12, 4: 620, 5: 87304}
    for d, n in expected.items():
        assert gw_p2.lookup((d,), (2,) * (3 * d - 1)) == n


def test_p2_positive_integers_to_degree_six():
    p2 = builtin_geometry("p2")
    tab = wdvv_solve(p2, default_gw_seeds(p2), 6)
    for d in range(1, 7):
        val = tab.lookup((d,), (2,) * (3 * d - 1))
        assert val.denominator == 1 and val > 0
    assert tab.lookup((6,), (2,) * 17) == 26312976


def test_quadric_counts(gw_quadric):
    assert gw_quadric.lookup((1, 1), (3, 3, 3)) == 1
    assert gw_quadric.lookup((2, 1), (3,) * 5) == 1
    assert gw_quadric.lookup((2, 2), (3,) * 7) == 12
    # multiple covers of a ruling contribute nothing through general points
    assert gw_quadric.lookup((2, 0), (3, 3, 3)) == 0
    assert gw_quadric.lookup((3, 0), (3,) * 5) == 0


def test_p3_classical_conic_counts():
    # space conics: none through 4 general points, one through 3 points and
    # 2 lines (plane + five-point conic), 92 meeting 8 general lines
    p3 = builtin_geometry("p3")
    tab = wdvv_solve(p3, default_gw_seeds(p3), 2)
    assert tab.lookup((1,), (2, 2, 2, 2)) == 2  # lines meeting 4 lines
    assert tab.lookup((2,), (3, 3, 3, 3)) == 0
    assert tab.lookup((2,), (2, 2, 3, 3, 3)) == 1
    assert tab.lookup((2,), (2,) * 8) == 92
    rng = random.Random(17)
    for inst, resid in sample_wdvv_residuals(p3, tab, 25, rng):
        assert resid == 0, inst.describe()


def test_quadric_swap_symmetry(gw_quadric):
    for (beta, key), val in gw_quadric.entries.items():
        assert gw_quadric.lookup((beta[1], beta[0]), key) == val


def test_divisor_and_string_lookup(gw_p2):
    base = gw_p2.lookup((2,), [2] * 5)
    assert gw_p2.lookup((2,), [1] + [2] * 5) == 2 * base
    assert gw_p2.lookup((2,), [0] + [2] * 5) == 0
    assert gw_p2.lookup((2,), [1, 1] + [2] * 5) == 4 * base


def test_dimension_gate(gw_p2):
    assert gw_p2.lookup((2,), [2] * 4) == 0
    assert gw_p2.lookup((2,), [2] * 6) == 0


def test_overdetermination_sample(gw_p2, gw_quadric):
    rng = random.Random(1)
    for geom_table in (gw_p2, gw_quadric):
        for inst, resid in sample_wdvv_residuals(geom_table.geom, geom_table, 25, rng):
            assert resid == 0, inst.describe()


def test_insufficient_seeds_reported():
    p2 = builtin_geometry("p2")
    with pytest.raises(InsufficientSeeds):
        wdvv_solve(p2, {}, 2)


def test_seed_conflict_reported():
    # corrupt one Gr(2,4) degree-1 value whose consistency IS visible to
    # associativity (a sigma21-bearing key)
    g = builtin_geometry("gr24")
    seeds = default_gw_seeds(g)
    seeds[((1,), (2, 4, 4))] = Fraction(7)
    with pytest.raises(SeedConflict, match="instance"):
        wdvv_solve(g, seeds, 1)


@pytest.mark.parametrize(
    "full_table, box",
    [("gw_quadric", box) for box in BOXES] + [("gw_p2", (d,)) for d in range(1, 6)],
    ids=lambda x: ",".join(map(str, x)) if isinstance(x, tuple) else x,
)
def test_boxed_solve_is_the_full_solve_cut_to_the_box(full_table, box, request):
    """A class splits only into classes below it, so solving the box alone
    gives the full table's entries there, and none elsewhere."""
    full = request.getfixturevalue(full_table)
    boxed = wdvv_solve(full.geom, default_gw_seeds(full.geom), sum(box), box)
    assert boxed.entries
    assert boxed.entries == {key: val for key, val in full.entries.items() if in_box(key[0], box)}


@pytest.mark.parametrize(
    "name, bad, box", [("p1xp1", ((1, 1), (3, 3, 3)), (2, 1)), ("p2", ((2,), (2,) * 5), (2,))], ids=["p1xp1", "p2"]
)
def test_boxed_solve_still_checks_a_seed_inside_the_box(name, bad, box):
    geom = builtin_geometry(name)
    seeds = {**default_gw_seeds(geom), bad: Fraction(2)}
    with pytest.raises(SeedConflict, match=re.escape(f"seed at beta={bad[0]}, insertions={bad[1]} contradicts")):
        wdvv_solve(geom, seeds, sum(box), box)


def test_gr24_degree1_from_packaged_seeds():
    g = builtin_geometry("gr24")
    tab = wdvv_solve(g, default_gw_seeds(g), 1)
    # all 16 canonical keys present and matching the data file
    seeds = parse_seed_records(packaged_seed_text("gr24-genus0-d1"), g)
    for key, val in seeds.items():
        assert tab.entries[key] == val
    rng = random.Random(9)
    for inst, resid in sample_wdvv_residuals(g, tab, 40, rng):
        assert resid == 0, inst.describe()


def test_gr24_degree1_joint_elimination():
    # with these two seeds gone no single instance isolates either value;
    # only the level's instances taken together determine both
    g = builtin_geometry("gr24")
    full = default_gw_seeds(g)
    dropped = [((1,), (2, 2, 2, 2, 2)), ((1,), (2, 2, 2, 2, 3))]
    tab = wdvv_solve(g, {k: v for k, v in full.items() if k not in dropped}, 1)
    for key in dropped:
        assert tab.entries[key] == full[key]


def test_gr24_degree2_evaluates_each_instance_once(monkeypatch):
    import charnum.gw as gw

    seen = Counter()
    residual = gw.wdvv_instance_residual

    def counting(table, inst):
        if inst.beta == (2,):
            seen[inst] += 1
        return residual(table, inst)

    monkeypatch.setattr(gw, "wdvv_instance_residual", counting)
    g = builtin_geometry("gr24")
    with pytest.raises(InsufficientSeeds):
        wdvv_solve(g, default_gw_seeds(g), 2)
    assert seen and max(seen.values()) == 1


def test_gr24_degree2_insufficiency_is_reported():
    # pure sigma_2/sigma_{1,1} strata only occur in paired sums, so degree 2
    # is not determined by degree-1 data; the solver must say so
    g = builtin_geometry("gr24")
    with pytest.raises(InsufficientSeeds):
        wdvv_solve(g, default_gw_seeds(g), 2)


def test_canonical_keys_p2():
    p2 = builtin_geometry("p2")
    assert canonical_keys(p2, (2,)) == [(2,) * 5]


def test_seed_record_validation():
    p2 = builtin_geometry("p2")
    with pytest.raises(ValueError, match="divisor"):
        parse_seed_records("1;0,1,2;1\n", p2)
    with pytest.raises(ValueError, match="fundamental"):
        parse_seed_records("1;1,0,2;1\n", p2)


def test_seed_record_malformed_names_the_line():
    p2 = builtin_geometry("p2")
    with pytest.raises(ValueError, match=r"line 2: expected a record beta;counts;p/q, got '1;0,0'"):
        parse_seed_records("# beta;counts;value\n1;0,0\n", p2)


def _all_pairs_residual(table, inst):
    """F(i,j|k,l) - F(i,k|j,l) by the unpruned contraction: every class
    split, every mark split and every (e, f) with ginv[e][f] != 0."""
    ginv = table.geom.pairing_inv
    rank = table.geom.rank
    i, j, k, l = inst.marks
    out = {}
    for (a, b, c, d), sign in (((i, j, k, l), 1), ((i, k, j, l), -1)):
        for beta1, beta2 in class_splits(inst.beta):
            for m1, m2, w in multiset_splits(inst.extras):
                for e in range(rank):
                    for f in range(rank):
                        if not ginv[e][f]:
                            continue
                        left, lkey = table._strip(beta1, (a, b, e) + m1)
                        right, rkey = table._strip(beta2, (c, d, f) + m2)
                        if not left or not right:
                            continue
                        assert lkey is None or rkey is None
                        key = rkey if lkey is None else lkey
                        out[key] = out.get(key, 0) + sign * w * ginv[e][f] * left * right
    return {key: v for key, v in out.items() if v}


WDVV_DMAX = {"p1": 3, "p2": 3, "p3": 2, "p4": 2, "p5": 2, "p6": 1, "p1xp1": 3, "gr24": 1}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_pruned_contraction_equals_all_pairs(name):
    # the solved values are replaced by random ones and the top-degree values
    # of one class dropped, so residuals carry constants and unknowns
    g = builtin_geometry(name)
    dmax = WDVV_DMAX[name]
    rng = random.Random(f"contraction-{name}")
    solved = wdvv_solve(g, default_gw_seeds(g), dmax)
    dropped = rng.choice(list(g.curve_classes(dmax)))
    entries = {
        (beta, key): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        for beta, key in solved.entries
        if beta != dropped
    }
    table = GWTable(g, dmax, entries)
    dv = g.divisors[0]
    for (beta, key), val in entries.items():
        assert table.lookup(beta, key + (dv,)) == g.degree_of(dv, beta) * val
    betas = [b for t in range(1, dmax + 1) for b in g.curve_classes(t)]
    nonzero = 0
    for n in range(60):
        # every other instance leaves out T0, which kills every term, and is
        # redrawn until its insertions carry the weight vdim(0, beta, 0) - 1
        # that a nonzero residual needs
        low = n % 2
        for _ in range(100 if low else 1):
            marks = tuple(rng.randrange(low, g.rank) for _ in range(4))
            extras = tuple(sorted(rng.randrange(low, g.rank) for _ in range(rng.randint(0, 4))))
            beta = rng.choice(betas)
            if sum(g.codim(x) - 1 for x in marks + extras) == g.vdim(0, beta, 0) - 1:
                break
        inst = Instance(beta, marks, extras)
        expect = _all_pairs_residual(table, inst)
        got = wdvv_instance_residual(table, inst)
        assert got == expect, inst.describe()
        assert all(type(v) is Fraction for v in got.values()), inst.describe()
        nonzero += bool(expect)
    # on P^1 every residual is 0 = 0: its one invariant has no insertions
    assert nonzero or name == "p1"


def _residual_or_assertion(residual, table, inst):
    try:
        return residual(table, inst)
    except AssertionError:
        return AssertionError


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_kernel_equals_all_pairs_with_string_and_divisor_extras(name):
    # as above, but one class of any degree is dropped, so a side of positive
    # degree below the instance's class can miss a key, and the extras, up
    # to 5, often hold T0 and divisors, which the kernel takes out first
    g = builtin_geometry(name)
    dmax = WDVV_DMAX[name]
    rng = random.Random(f"kernel-{name}")
    solved = wdvv_solve(g, default_gw_seeds(g), dmax)
    betas = [b for t in range(1, dmax + 1) for b in g.curve_classes(t)]
    dropped = rng.choice(betas)
    entries = {
        (beta, key): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        for beta, key in solved.entries
        if beta != dropped
    }
    table = GWTable(g, dmax, entries)
    # each extra comes with even odds from T0 and the divisors (T0 the
    # rarer) or from the classes of codim >= 2; every other instance's marks
    # leave out T0
    pools = [[0] + list(g.divisors) * 3, g.nondiv or list(g.divisors)]
    instances = []
    if name == "p1xp1":
        # a kernel that keeps divisor extras in its mark splits, unscaled,
        # gets this instance wrong
        instances.append(Instance((1, 1), (2, 2, 1, 3), (1, 1, 2, 3)))
    while len(instances) < 300:
        marks = tuple(rng.randrange(len(instances) % 2, g.rank) for _ in range(4))
        extras = tuple(sorted(rng.choice(rng.choice(pools)) for _ in range(rng.randint(0, 5))))
        beta = rng.choice(betas)
        if sum(g.steps[x] for x in marks + extras) == g.vdim0(beta) - 1:
            instances.append(Instance(beta, marks, extras))
    reduced = 0
    for inst in instances:
        expect = _residual_or_assertion(_all_pairs_residual, table, inst)
        got = _residual_or_assertion(wdvv_instance_residual, table, inst)
        assert got == expect, inst.describe()
        reduced += expect not in ({}, AssertionError) and any(g.steps[x] < 1 for x in inst.extras)
    # on P^1 every residual is 0 = 0: its one invariant has no insertions
    assert reduced or name == "p1"


def test_solve_strips_few_insertions(monkeypatch):
    # a residual term of positive degree on both sides reads its values by
    # code; only sides of degree 0 and their partners go through _strip
    calls = []
    strip = GWTable._strip
    monkeypatch.setattr(GWTable, "_strip", lambda self, beta, ins: calls.append(beta) or strip(self, beta, ins))
    p5 = builtin_geometry("p5")
    wdvv_solve(p5, default_gw_seeds(p5), 3)
    assert 0 < len(calls) <= 2000


def _insertions(table, code):
    """The sorted multiset of insertions whose code is `code`."""
    out = []
    for c in table.geom.nondiv:
        code, k = divmod(code, table.radix)
        out += [c] * k
    assert code == 0
    return tuple(out)


def _read_through_codes(table):
    return {(beta, _insertions(table, code)): val for beta, vals in table.by_code.items() for code, val in vals.items()}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_code_index_equals_entries(name):
    g = builtin_geometry(name)
    solved = wdvv_solve(g, default_gw_seeds(g), WDVV_DMAX[name])
    assert _read_through_codes(solved) == solved.entries
    rebuilt = GWTable(g, solved.dmax, dict(solved.entries))
    assert _read_through_codes(rebuilt) == solved.entries


@pytest.mark.parametrize("name, dmax, largest", [("p2", 8, (2,) * 23), ("p1xp1", 10, (3,) * 19)])
def test_insertion_codes_do_not_carry(name, dmax, largest):
    # the largest tables that the benchmark pool and the anchors solve
    g = builtin_geometry(name)
    table = GWTable(g, dmax)
    assert table.radix > len(largest)
    for t in range(1, dmax + 1):
        for beta in g.curve_classes(t):
            keys = canonical_keys(g, beta)
            assert [_insertions(table, table.code(key)) for key in keys] == keys
            assert len({table.code(key) for key in keys}) == len(keys)
    assert largest in canonical_keys(g, (dmax, 0) if name == "p1xp1" else (dmax,))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_no_int_reaches_the_elimination(name, monkeypatch):
    # residuals are summed on ints; the elimination divides by their
    # coefficients, where an int pivot would make 1 / row[pivot] a float
    import charnum.gw as gw

    g = builtin_geometry(name)
    coefs = []
    residual = gw.wdvv_instance_residual

    def recording(table, inst):
        out = residual(table, inst)
        coefs.extend(out.values())
        return out

    monkeypatch.setattr(gw, "wdvv_instance_residual", recording)
    if name == "gr24":
        # degree 1 is seeded in full; degree 2 evaluates instances before its refusal
        with pytest.raises(InsufficientSeeds):
            wdvv_solve(g, default_gw_seeds(g), 2)
    table = wdvv_solve(g, default_gw_seeds(g), WDVV_DMAX[name])
    assert coefs or name == "p1"
    assert all(type(v) is Fraction for v in coefs)
    assert all(type(v) is Fraction for v in table.entries.values())
    looked_up = [table.lookup(beta, key) for beta, key in table.entries]
    looked_up += [table.lookup(beta, key + (dv,)) for beta, key in table.entries for dv in g.divisors]
    looked_up += [table.lookup((0,) * len(g.divisors), t) for t in product(range(g.rank), repeat=3)]
    looked_up += [table.lookup(beta, (0,) + key) for beta, key in table.entries]
    assert all(type(v) is Fraction for v in looked_up)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_degree0_triples_read_one_memo_entry(name):
    g = load_geometry(builtin_geometry(name).to_text())  # a ring whose memos no other test has filled
    assert g.triples == {}
    table = GWTable(g, 1)
    zero = (0,) * len(g.divisors)
    for t in product(range(g.rank), repeat=3):
        assert table._strip(zero, t) == (g.integral(g.cup_classes(t)), None), t
        assert tuple(sorted(t)) in g.triples
    # every permutation of a triple reads the entry of its sorted form
    assert sorted(g.triples) == list(combinations_with_replacement(range(g.rank), 3))


def test_solves_and_engines_over_one_ring_share_its_memos(monkeypatch):
    """A second WDVV solve, and a second descendant engine, over the same
    geometry expand no degree-0 triple or cup product again."""
    g = load_geometry(builtin_geometry("p2").to_text())  # a ring whose memos no other test has filled
    expanded = []
    cup_classes = TargetGeometry.cup_classes
    monkeypatch.setattr(
        TargetGeometry, "cup_classes", lambda self, indices: expanded.append(indices) or cup_classes(self, indices)
    )
    spec = DescendantSpec(0, (3,), ((0, 2),) * 6 + ((1, 1),) * 2)
    first = wdvv_solve(g, default_gw_seeds(g), 3)
    value = DescendantEngine(g, first).value(spec)
    assert value == 40 and expanded
    expanded.clear()
    second = wdvv_solve(g, default_gw_seeds(g), 3)
    assert second == first
    assert DescendantEngine(g, second).value(spec) == value
    assert expanded == []
    assert g.triples and g.cups


def test_table_from_config_equals_builtin():
    p2 = builtin_geometry("p2")
    loaded = load_geometry(p2.to_text())
    assert wdvv_solve(loaded, default_gw_seeds(loaded), 4) == wdvv_solve(p2, default_gw_seeds(p2), 4)
