from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial, gcd, lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charnum.descend import TangencySpace
from charnum.geometry import builtin_geometry, in_box
from charnum.planecurves import PLANE, charnum_genus1
from charnum.quadric import QUADRIC
from charnum.series import (
    DiffOperator,
    NumeratorSum,
    Operand,
    Packing,
    SeriesTable,
    Slice,
    VarSpace,
    VariableMismatch,
    compositions,
    series_product,
)

SP = VarSpace(("s",), ("u", "v", "w"))
TS = TangencySpace(builtin_geometry("p2"))  # degree x1, exponents x2, y1, y2: the shape of SP


def table(entries, dmax=6, space=SP):
    return SeriesTable(space, dmax, {(tuple(d), tuple(m)): Fraction(v) for (d, m), v in entries.items()})


def test_unit_product_adds_degrees():
    f = table({((1,), (0, 0, 0)): 1})
    g = table({((1,), (0, 0, 0)): 1})
    assert (f * g).entries == {((2,), (0, 0, 0)): 1}


def test_product_with_zero_table():
    f = table({((1,), (2, 0, 0)): 5})
    z = table({})
    assert len(f * z) == 0


def test_egf_binomial_convolution():
    # v^1-coefficient tables multiply to a v^2 entry with binomial factor 2
    f = table({((1,), (0, 1, 0)): 1})
    assert (f * f).entries == {((2,), (0, 2, 0)): 2}


def test_degree_variable_derivative_scales():
    f = table({((3,), (1, 2, 0)): 7})
    assert f.partial("s").entries == {((3,), (1, 2, 0)): 21}


def test_exponent_derivative_shifts_index():
    f = table({((2,), (1, 3, 0)): 5})
    assert f.partial("v").entries == {((2,), (1, 2, 0)): 5}
    assert len(f.partial("w")) == 0


def test_unknown_variable_rejected():
    f = table({((1,), (0, 0, 0)): 1})
    with pytest.raises(KeyError):
        f.partial("z")


def test_monomial_multiplication_egf_factor():
    # v * (v^b/b!) = (b+1) v^{b+1}/(b+1)!
    f = table({((1,), (0, 3, 0)): 1})
    for k, value in ((1, 4), (2, 20)):
        acc = NumeratorSum(SP, f.dmax)
        acc.add(f, [(1, {"v": k})])
        assert acc.table().entries == {((1,), (0, 3 + k, 0)): value}


def test_operator_on_degree_stratum():
    L = DiffOperator.build([(1, {}, "s"), (2, {"v": 1}, "u")])
    f = table({((4,), (0, 0, 0)): 3})
    assert L(f).entries == {((4,), (0, 0, 0)): 12}


def test_point_operator_example():
    # on a (d;0,0,0) entry N only 2v d/ds acts: entry (d;0,1,0) value 2dN
    P = DiffOperator.build([(2, {"v": 1}, "s"), (2, {"v": 2}, "u"), (2, {"w": 1}, "u")])
    f = table({((3,), (0, 0, 0)): 5})
    assert P(f).entries == {((3,), (0, 1, 0)): 30}


def test_zero_operator():
    op = DiffOperator.build([(0, {}, "s")])
    f = table({((1,), (1, 1, 1)): 9})
    assert len(op(f)) == 0


def test_variable_mismatch():
    other = SeriesTable(VarSpace(("t",), ("v",)), 4, {((1,), (0,)): Fraction(1)})
    f = table({((1,), (0, 0, 0)): 1})
    with pytest.raises(VariableMismatch):
        series_product(f, other)


def test_no_floats_accepted():
    with pytest.raises(TypeError):
        SeriesTable(SP, 4, {((1,), (0, 0, 0)): 0.5})
    f = table({((1,), (0, 0, 0)): 1})
    with pytest.raises(TypeError):
        f.scale(0.5)


def keys():
    return st.tuples(
        st.tuples(st.integers(0, 2)),
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    )


def tables():
    return st.dictionaries(keys(), st.fractions(min_value=-3, max_value=3), max_size=4).map(
        lambda d: SeriesTable(SP, 5, d)
    )


@settings(max_examples=60, deadline=None)
@given(tables(), tables())
def test_product_commutative(f, g):
    assert f * g == g * f


@settings(max_examples=40, deadline=None)
@given(tables(), tables(), tables())
def test_product_associative(f, g, h):
    assert (f * g) * h == f * (g * h)


@settings(max_examples=40, deadline=None)
@given(tables(), tables(), st.sampled_from(["s", "u", "v", "w"]))
def test_leibniz_rule(f, g, var):
    lhs = (f * g).partial(var)
    rhs = f.partial(var) * g + f * g.partial(var)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(tables(), st.sampled_from(["s", "u", "v", "w"]), st.sampled_from(["s", "u", "v", "w"]))
def test_partials_commute(f, x, y):
    assert f.partial(x).partial(y) == f.partial(y).partial(x)


def test_substitute_splits_variable():
    # x = u + v on an x^2/2! entry: every mixed stratum keeps the invariant
    src = VarSpace(("s",), ("x",))
    f = SeriesTable(src, 3, {((1,), (2,)): Fraction(6)})
    out = f.substitute(SP, {"x": [(1, "u"), (1, "v")]})
    assert out.entries == {
        ((1,), (2, 0, 0)): 6,
        ((1,), (1, 1, 0)): 6,
        ((1,), (0, 2, 0)): 6,
    }


def test_substitute_with_coefficient():
    src = VarSpace(("s",), ("x",))
    f = SeriesTable(src, 3, {((1,), (1,)): Fraction(1)})
    out = f.substitute(SP, {"x": [(1, "u"), (2, "v")]})
    assert out.entries == {((1,), (1, 0, 0)): 1, ((1,), (0, 1, 0)): 2}


def test_substitute_keeps_degree_slots_in_place():
    # the i-th degree variable becomes the i-th one, whatever the names
    src = VarSpace(("x1", "x2"), ("x",))
    f = SeriesTable(src, 5, {((2, 1), (1,)): Fraction(3), ((0, 3), (0,)): Fraction(5)})
    out = f.substitute(QUADRIC.space, {"x": [(1, "u")]})
    assert out.space == QUADRIC.space
    assert out.entries == {((2, 1), (1, 0, 0)): 3, ((0, 3), (0, 0, 0)): 5}


def test_substitute_to_zero_kills_entries():
    src = VarSpace(("s",), ("x", "y"))
    f = SeriesTable(src, 3, {((1,), (1, 0)): Fraction(2), ((1,), (0, 1)): Fraction(3)})
    out = f.substitute(SP, {"x": [(1, "u")], "y": []})
    assert out.entries == {((1,), (1, 0, 0)): 2}


def bounded_tables():
    """Tables with their own dmax and keys that may lie above it."""
    entries = st.dictionaries(
        st.tuples(
            st.tuples(st.integers(0, 3)),
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
        ),
        st.fractions(min_value=-3, max_value=3),
        max_size=5,
    )
    return st.builds(lambda dmax, d: SeriesTable(SP, dmax, d), st.integers(0, 4), entries)


def assert_clean(t):
    """The invariant every table operation keeps: nonzero int numerators over
    their least common denominator, nonzero Fraction values only, and no key
    above dmax or outside the variable space."""
    assert type(t.den) is int and t.den > 0
    assert all(type(num) is int and num != 0 for num in t.nums.values())
    assert gcd(t.den, *t.nums.values()) == 1
    for (deg, mono), val in t.entries.items():
        assert type(val) is Fraction and val != 0
        assert sum(deg) <= t.dmax
        assert len(deg) == 1 and len(mono) == 3 and min(deg + mono) >= 0


@settings(max_examples=60, deadline=None)
@given(bounded_tables(), bounded_tables())
def test_sliced_product_is_one_degree_of_the_product(f, g):
    full = f * g
    for n in range(min(f.dmax, g.dmax) + 2):
        assert series_product(f, g, total=n) == full.filter_keys(lambda deg, m, n=n: sum(deg) == n)


@settings(max_examples=60, deadline=None)
@given(
    bounded_tables(),
    bounded_tables(),
    st.sampled_from(["s", "u", "v", "w"]),
    st.fractions(min_value=-2, max_value=2),
    st.integers(0, 5),
)
def test_operations_keep_tables_clean(f, g, var, c, k):
    results = [
        f.partial(var),
        PLANE.point(f),
        PLANE.lines[0](f),
        DiffOperator.build([(c, {"v": 1}, var), (-c, {}, "s")])(f),
        f.scale(c),
        f + g,
        f - g,
        f - f,
        f * g,
        series_product(f, g, total=k),
        f.truncate(k),
        f.filter_keys(lambda deg, mono: mono[0] <= 1),
        f.substitute(SP, {"u": [(c, "v"), (1, "u")], "v": [(-1, "w"), (c, "w")], "w": []}),
        TS.poly_times(SeriesTable(TS.space, f.dmax, f.entries), {(1, 0): c, (0, 1): Fraction(-1, 2), (0, 0): 1}),
    ]
    acc = NumeratorSum(SP, k)
    acc.add(f, [(c, {"v": 1}), (1, {})])
    acc.add(g, [(Fraction(1, 3), {"w": 2}), (-c, {"u": 1})])
    raised = NumeratorSum(SP, f.dmax)
    raised.add(f, [(c, {"v": 2, "w": 1})])
    results += [acc.table(), raised.table()]
    for t in results:
        assert_clean(t)


@settings(max_examples=60, deadline=None)
@given(bounded_tables(), bounded_tables())
def test_sum_keeps_the_smaller_dmax(f, g):
    for t in (f + g, g + f):
        assert t.dmax == min(f.dmax, g.dmax)
        assert all(sum(deg) <= t.dmax for deg, _ in t.entries)


# -- a second route for the kernels: naive all-Fraction loops ---------------------


def naive_product(f, g, total=None):
    """Every pair of entries, one Fraction product and sum at a time."""
    out = {}
    for (d1, m1), v1 in f.entries.items():
        for (d2, m2), v2 in g.entries.items():
            deg = tuple(a + b for a, b in zip(d1, d2))
            if sum(deg) > min(f.dmax, g.dmax) or total is not None and sum(deg) != total:
                continue
            w = v1 * v2
            for a, b in zip(m1, m2):
                w *= comb(a + b, a)
            key = (deg, tuple(a + b for a, b in zip(m1, m2)))
            out[key] = out.get(key, Fraction(0)) + w
    return {k: v for k, v in out.items() if v}


def naive_apply(op, f):
    """Sum over the terms of coef * monomial * d/d(var) f, by a partial
    derivative and a monomial multiplication per term."""
    sp = f.space
    out = {}
    for coef, mono, var in op.terms:
        for (deg, exps), val in f.entries.items():
            exps = list(exps)
            if var in sp.degree_vars:
                val = val * deg[sp.degree_vars.index(var)]
            elif exps[sp.exp_vars.index(var)]:
                exps[sp.exp_vars.index(var)] -= 1
            else:
                continue
            val = val * coef
            for name, k in mono:
                i = sp.exp_vars.index(name)
                val = val * Fraction(factorial(exps[i] + k), factorial(exps[i]))
                exps[i] += k
            key = (deg, tuple(exps))
            out[key] = out.get(key, Fraction(0)) + val
    return {k: v for k, v in out.items() if v}


Q_SP = QUADRIC.space
VALUES = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=50),
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)]),  # cancel often
)


def exact_tables(space):
    degs = st.tuples(*[st.integers(0, 3 if len(space.degree_vars) == 1 else 2)] * len(space.degree_vars))
    exps = st.tuples(*[st.integers(0, 2)] * len(space.exp_vars))
    entries = st.dictionaries(st.tuples(degs, exps), VALUES, max_size=8)
    return st.builds(lambda dmax, d: SeriesTable(space, dmax, d), st.integers(1, 5), entries)


def operators(space):
    names = list(space.degree_vars + space.exp_vars)
    mono = st.dictionaries(st.sampled_from(space.exp_vars), st.integers(0, 2), max_size=2)
    term = st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=50), mono, st.sampled_from(names))
    return st.lists(term, min_size=1, max_size=4).map(DiffOperator.build)


def assert_exact(t, expected):
    assert t.entries == expected
    assert all(type(v) is Fraction for v in t.entries.values())


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([SP, Q_SP]).flatmap(lambda sp: st.tuples(exact_tables(sp), exact_tables(sp))))
def test_product_equals_pairwise_fractions(fg):
    f, g = fg
    assert_exact(series_product(f, g), naive_product(f, g))
    for n in range(min(f.dmax, g.dmax) + 2):
        assert_exact(series_product(f, g, total=n), naive_product(f, g, n))


def test_product_drops_a_cancelled_entry():
    f = table({((1,), (1, 0, 0)): Fraction(1, 3), ((1,), (0, 1, 0)): Fraction(-1, 3)})
    g = table({((1,), (0, 1, 0)): Fraction(3, 7), ((1,), (1, 0, 0)): Fraction(3, 7)})
    assert naive_product(f, g) == {((2,), (2, 0, 0)): Fraction(2, 7), ((2,), (0, 2, 0)): Fraction(-2, 7)}
    assert_exact(f * g, naive_product(f, g))


@settings(max_examples=80, deadline=None)
@given(exact_tables(SP), operators(SP))
def test_plane_operators_equal_term_by_term(f, op):
    for known in (PLANE.point, *PLANE.lines, op):
        assert_exact(known(f), naive_apply(known, f))


@settings(max_examples=80, deadline=None)
@given(exact_tables(Q_SP), operators(Q_SP))
def test_quadric_operators_equal_term_by_term(f, op):
    for known in (QUADRIC.point, *QUADRIC.lines, op):
        assert_exact(known(f), naive_apply(known, f))


def naive_substitute(f, space, exp_map):
    """Expand each x^m/m! as a sum over the m-letter words in the targets,
    one Fraction at a time, and restore the factorials of the new exponents."""
    out = {}
    for (deg, mono), val in f.entries.items():
        terms = {(0,) * len(space.exp_vars): val}
        for old, m in zip(f.space.exp_vars, mono):
            targets = exp_map[old]
            nxt = {}
            for word in product(targets, repeat=m):
                c = Fraction(1, factorial(m))
                bump = [0] * len(space.exp_vars)
                for coef, name in word:
                    c *= coef
                    bump[space.exp_index(name)] += 1
                for base, v in terms.items():
                    key = tuple(a + b for a, b in zip(base, bump))
                    nxt[key] = nxt.get(key, Fraction(0)) + v * c
            terms = nxt
        for nmono, v in terms.items():
            key = (deg, nmono)
            out[key] = out.get(key, Fraction(0)) + v * prod(map(factorial, nmono))
    return {k: v for k, v in out.items() if v}


def naive_times_poly(t, terms):
    """sum_j c_j m_j t, one monomial and one Fraction rising factorial at a time."""
    sp = t.space
    out = {}
    for coef, powers in terms:
        for (deg, exps), val in t.entries.items():
            exps = list(exps)
            val = val * coef
            for name, k in powers.items():
                i = sp.exp_vars.index(name)
                val = val * Fraction(factorial(exps[i] + k), factorial(exps[i]))
                exps[i] += k
            key = (deg, tuple(exps))
            out[key] = out.get(key, Fraction(0)) + val
    return {k: v for k, v in out.items() if v}


SRC_SP = VarSpace(("s",), ("x", "y"))
COEFS = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.sampled_from([Fraction(0), Fraction(-1), Fraction(2, 3)]),
)
# each old variable goes to zero to three (coefficient, new name) terms; names may repeat
ASSIGNMENTS = st.fixed_dictionaries(
    {old: st.lists(st.tuples(COEFS, st.sampled_from(SP.exp_vars)), max_size=3) for old in SRC_SP.exp_vars}
)


@settings(max_examples=80, deadline=None)
@given(exact_tables(SRC_SP), ASSIGNMENTS)
def test_substitute_equals_word_expansion(f, exp_map):
    assert_exact(f.substitute(SP, exp_map), naive_substitute(f, SP, exp_map))


def compositions_substitute(f, space, exp_map):
    """The expansion of `substitute` before a variable with one target got
    its own step: each exponent m of an old variable is split over its
    targets by `compositions`, and every split multiplies the weight by
    binomial(n_j + k, k) c^k for each target c z_j taking k of it."""
    out = {}
    for (deg, mono), val in f.entries.items():
        acc = {(0,) * len(space.exp_vars): val}
        for old, m in zip(f.space.exp_vars, mono):
            if not m:
                continue
            targets = [(Fraction(c), space.exp_index(name)) for c, name in exp_map[old]]
            nxt = {}
            for split in compositions(m, (1,) * len(targets)):
                for base, w in acc.items():
                    new = list(base)
                    for (c, j), k in zip(targets, split):
                        w *= comb(new[j] + k, k) * c**k
                        new[j] += k
                    nxt[tuple(new)] = nxt.get(tuple(new), 0) + w
            acc = nxt
        for nmono, w in acc.items():
            out[(deg, nmono)] = out.get((deg, nmono), 0) + w
    return {key: v for key, v in out.items() if v}


SRC3_SP = VarSpace(("s",), ("x", "y", "z"))
TARGET = st.tuples(COEFS, st.sampled_from(SP.exp_vars))
# one target (with a zero or fractional coefficient at times), or several
MAPS = st.fixed_dictionaries(
    {old: st.one_of(st.lists(TARGET, min_size=1, max_size=1), st.lists(TARGET, max_size=3)) for old in SRC3_SP.exp_vars}
)
SRC3_TABLES = st.builds(
    lambda dmax, d: SeriesTable(SRC3_SP, dmax, d),
    st.integers(1, 4),
    st.dictionaries(
        st.tuples(st.tuples(st.integers(0, 3)), st.tuples(*[st.integers(0, 4)] * 3)), VALUES, max_size=8
    ),
)


@settings(max_examples=120, deadline=None)
@given(SRC3_TABLES, MAPS)
@example(
    table({((1,), (4, 1, 0)): Fraction(5, 3), ((2,), (0, 3, 2)): -7, ((3,), (2, 2, 2)): Fraction(1, 4)}, space=SRC3_SP),
    {"x": [(Fraction(-2, 3), "u")], "y": [(0, "v")], "z": [(1, "w"), (Fraction(1, 2), "v")]},
)
def test_substitute_equals_the_compositions_expansion(f, exp_map):
    assert_exact(f.substitute(SP, exp_map), compositions_substitute(f, SP, exp_map))


def test_substitute_fractional_negative_zero_and_empty_targets():
    f = table({((1,), (2, 1)): Fraction(5, 3), ((2,), (0, 2)): Fraction(-7, 2), ((1,), (3, 0)): 4}, space=SRC_SP)
    exp_map = {"x": [(Fraction(1, 2), "u"), (-3, "v"), (0, "w")], "y": [(Fraction(-2, 5), "u"), (1, "u")]}
    assert_exact(f.substitute(SP, exp_map), naive_substitute(f, SP, exp_map))
    killed = {"x": [(1, "u")], "y": []}
    assert_exact(f.substitute(SP, killed), naive_substitute(f, SP, killed))
    assert f.substitute(SP, killed).entries == {((1,), (3, 0, 0)): 4}


POLYS = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), COEFS, max_size=4)


@settings(max_examples=80, deadline=None)
@given(exact_tables(TS.space), POLYS)
def test_poly_times_equals_monomial_by_monomial(f, poly):
    for p in (poly, *(TS.gamma[e][g] for e in range(1, 3) for g in range(1, 3))):
        assert_exact(TS.poly_times(f, p), naive_times_poly(f, TS.poly_terms(p)))


@settings(max_examples=60, deadline=None)
@given(exact_tables(SP), exact_tables(SP), POLYS, POLYS, st.integers(0, 5))
def test_numerator_sum_equals_fraction_sums(f, g, p, q, dmax):
    """Tables over different denominators, added in turn, with the cut at dmax."""
    terms_f = [(c, {"v": a, "w": b}) for (a, b), c in p.items()]
    terms_g = [(c, {"u": a, "v": b}) for (a, b), c in q.items()]
    acc = NumeratorSum(SP, dmax)
    acc.add(f, terms_f)
    acc.add(g, terms_g)
    expected = {}
    for part in (naive_times_poly(f, terms_f), naive_times_poly(g, terms_g)):
        for key, val in part.items():
            expected[key] = expected.get(key, Fraction(0)) + val
    assert_exact(acc.table(), {k: v for k, v in expected.items() if v and sum(k[0]) <= dmax})


# -- the product kernel: packed keys and prepared degree slices -------------------

WIDE_VALUES = st.one_of(
    st.integers(-10**6, 10**6).filter(bool).map(Fraction),
    st.fractions(min_value=-50, max_value=50, max_denominator=720),
)


def wide_tables(space, top=12):
    """Tables with exponents up to `top`, far beyond the radix of small tables,
    and keys that may lie above their own dmax."""
    degs = st.tuples(*[st.integers(0, 4 if len(space.degree_vars) == 1 else 3)] * len(space.degree_vars))
    exps = st.tuples(*[st.integers(0, top)] * len(space.exp_vars))
    entries = st.dictionaries(st.tuples(degs, exps), WIDE_VALUES, max_size=10)
    return st.builds(lambda dmax, d: SeriesTable(space, dmax, d), st.integers(0, 5), entries)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([SP, Q_SP, TS.space]).flatmap(lambda sp: st.tuples(wide_tables(sp), wide_tables(sp))))
def test_kernel_equals_binomial_convolution(fg):
    """Negative and fractional values, wide exponents, unequal dmax, totals
    above dmax and empty factors."""
    f, g = fg
    assert_exact(series_product(f, g), naive_product(f, g))
    for n in range(min(f.dmax, g.dmax) + 3):
        assert_exact(series_product(f, g, total=n), naive_product(f, g, n))


@settings(max_examples=60, deadline=None)
@given(wide_tables(Q_SP, top=6), wide_tables(Q_SP, top=6), st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_kernel_skips_class_pairs_outside_the_box(f, g, box):
    pk = Packing.fitting((f, g), box)
    inside = {k: v for k, v in naive_product(f, g).items() if all(a <= b for a, b in zip(k[0], box))}
    assert_exact(series_product(Operand(pk, f), Operand(pk, g)), inside)


@settings(max_examples=60, deadline=None)
@given(wide_tables(SP, top=8), wide_tables(SP, top=8))
def test_operands_prepared_slice_by_slice_equal_whole_tables(f, g):
    """A level loop adds one degree slice at a time to a packing with fixed
    bounds; the products do not depend on how the slices came in."""
    pk = Packing(SP, min(f.dmax, g.dmax), [8] * 3)
    by_slice = Operand(pk), Operand(pk)
    for op, t in zip(by_slice, (f, g)):
        for n in reversed(range(pk.dmax + 1)):
            op.extend(t.filter_keys(lambda deg, mono, n=n: sum(deg) == n))
    whole = Operand(pk, f), Operand(pk, g)
    assert len(whole[0]) == len(f.truncate(pk.dmax)) and len(by_slice[1]) == len(g.truncate(pk.dmax))
    for n in (None, *range(pk.dmax + 2)):
        assert_exact(series_product(*by_slice, total=n), naive_product(f, g, n))
        assert_exact(series_product(*whole, total=n), naive_product(f, g, n))


@settings(max_examples=60, deadline=None)
@given(
    wide_tables(Q_SP, top=6),
    wide_tables(Q_SP, top=6),
    wide_tables(Q_SP, top=6),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(0, 6),
    COEFS,
)
def test_numerator_path_equals_adding_the_product_table(f, g, h, box, dmax, c):
    """`add_product` into a sum that already holds a table over another
    denominator, with a box: the same sum as adding `series_product`'s table."""
    pk = Packing.fitting((f, g), box)
    ops = Operand(pk, f), Operand(pk, g)
    direct, via_table = NumeratorSum(Q_SP, dmax), NumeratorSum(Q_SP, dmax)
    for acc in (direct, via_table):
        acc.add(h, [(c, {"v": 1})])
    for n in range(pk.dmax + 2):
        direct.add_product(*ops, n)
        via_table.add(series_product(*ops, total=n), [(1, {})])
    assert_exact(direct.table(), via_table.table().entries)
    alone = NumeratorSum(Q_SP, dmax)
    for n in range(pk.dmax + 2):
        alone.add_product(*ops, n)
    inside = {k: v for k, v in naive_product(f, g).items() if in_box(k[0], box) and sum(k[0]) <= dmax}
    assert_exact(alone.table(), inside)


# -- transforms of a prepared slice against the table route ---------------------

P3 = TangencySpace(builtin_geometry("p3"))  # gamma has a coefficient 4/3 and raises y1 by up to 3


def _rationals(op: Operand) -> dict:
    """The values of an operand's slices as Fractions, by (class, packed key)."""
    return {
        (deg, key): Fraction(num, den)
        for den, groups in op.slices.values()
        for deg, terms in groups
        for key, num in terms
    }


def _derived(pk: Packing, t: SeriesTable, transform) -> dict:
    """The operand of `transform` applied to each prepared slice of t."""
    op = Operand(pk)
    for s in pk.prepare(t).values():
        op.append(transform(s))
    return _rationals(op)


def _table_route(pk: Packing, t: SeriesTable) -> dict:
    return _rationals(Operand(pk, t))


def _cases(space):
    """(table op, slice op) pairs that a level loop applies, for this space."""
    degs, exps = space.degree_vars, space.exp_vars
    same = [
        lambda f: f.partial(degs[-1]),
        lambda f: f.partial(exps[1]),
        lambda f: f.partial(exps[0]).partial(degs[0]),
    ]
    cases = [(op, op) for op in same] + [
        # ds of a slice of total degree n is n times it
        (lambda t: _sum_partials(t, degs), lambda s: s.scale(s.total)),
        (lambda t: t.filter_keys(lambda deg, mono: not mono[-1]), lambda s: s.cut(exps[-1])),
    ]
    if space == P3.space:
        for e, row in P3.rows.items():
            slice_op = lambda s, row=row: Slice.combine((s.partial(f"x{f}"), terms) for f, terms in row)  # noqa: E731
            cases.append((lambda t, e=e: _contraction(t, e), slice_op))
    else:
        surface = PLANE if space == PLANE.space else QUADRIC
        cases += [(op, op.image) for op in (surface.point, *surface.lines)]
        cases.append((lambda t: surface.images(t)[0].partial("u"), lambda s: surface.slice_images(s)[0].partial("u")))
    return cases


def _sum_partials(t, degs):
    out = t.partial(degs[0])
    for x in degs[1:]:
        out = out + t.partial(x)
    return out


def _contraction(t: SeriesTable, e: int) -> SeriesTable:
    """sum_f gamma^{ef} t_{x_f} on tables."""
    out = NumeratorSum(t.space, t.dmax)
    for f in range(1, P3.geom.rank):
        if P3.gamma[e][f]:
            out.add(t.partial(f"x{f}"), P3.poly_terms(P3.gamma[e][f]))
    return out.table()


SLICE_SPACES = st.sampled_from([PLANE.space, QUADRIC.space, P3.space])


@settings(max_examples=60, deadline=None)
@given(SLICE_SPACES.flatmap(lambda sp: wide_tables(sp, top=3)))
def test_slice_transforms_equal_the_table_route(t):
    """Each map a level loop applies to a packed slice (a degree partial, an
    exponent partial, ds as n times the slice, the w = 0 cut, an operator
    image and a gamma contraction) gives, as rationals, the operand that
    `Operand` prepares from the same map on the table."""
    pk = Packing(t.space, t.dmax, [6] * len(t.space.exp_vars))
    for table_op, slice_op in _cases(t.space):
        assert _derived(pk, t, slice_op) == _table_route(pk, table_op(t))


@settings(max_examples=60, deadline=None)
@given(
    SLICE_SPACES.flatmap(
        lambda sp: st.tuples(wide_tables(sp, top=3), st.sampled_from(sp.exp_vars), st.integers(1, 3))
    )
)
@example(case=(SeriesTable(PLANE.space, 2, {((1,), (3, 0, 0)): 1, ((1,), (0, 2, 0)): 1}), "v", 1))
def test_a_raised_slot_past_its_bound_raises_as_packing_does(case):
    """A monomial that takes an entry past the packing's bound raises
    ValueError on the slice path exactly when the table route raises."""
    t, var, k = case
    pk = Packing.fitting((t,))
    shift = t.space.shift({var: k})
    # as packed, and after a partial, where the bound a slice carries is loose
    for before in (lambda f: f, lambda f: f.partial(t.space.exp_vars[0])):
        raised = NumeratorSum(t.space, t.dmax)
        raised.add(before(t), [(1, {var: k})])
        route = lambda s, before=before: Slice.combine([(before(s), [(Fraction(1), shift)])])  # noqa: E731
        try:
            expected = _table_route(pk, raised.table())
        except ValueError:
            with pytest.raises(ValueError, match="exceed the packing bounds"):
                _derived(pk, t, route)
        else:
            assert _derived(pk, t, route) == expected


def test_an_operand_takes_only_slices_of_its_own_packing():
    t = table({((1,), (1, 0, 0)): 1})
    pk, other = Packing(SP, 3, [2, 2, 2]), Packing(SP, 3, [2, 2, 2])
    with pytest.raises(ValueError, match="own packing"):
        Operand(pk).append(other.prepare(t)[1])
    op = Operand(pk)
    op.append(Slice(pk, 1))  # an empty slice adds nothing
    assert op.slices == {} and len(op) == 0
    op.append(pk.prepare(t)[1])
    with pytest.raises(ValueError, match="already prepared"):
        op.append(pk.prepare(t)[1])


@settings(max_examples=60, deadline=None)
@given(SLICE_SPACES.flatmap(lambda sp: wide_tables(sp, top=3)), COEFS, st.integers(0, 5))
@example(t=SeriesTable(PLANE.space, 3, {((1,), (2, 0, 0)): 3, ((3,), (1, 2, 3)): -5}), c=Fraction(2, 3), dmax=1)
def test_add_slice_inverts_prepare(t, c, dmax):
    """c times each prepared slice of t, summed with `add_slice`, is c t cut
    to the sum's dmax; a slice above that dmax adds nothing."""
    pk = Packing(t.space, t.dmax, [3] * len(t.space.exp_vars))
    slices = pk.prepare(t)
    acc, whole = NumeratorSum(t.space, dmax), NumeratorSum(t.space, dmax)
    for s in slices.values():
        acc.add_slice(s, c)
        whole.add_slice(s)
    assert acc.table() == t.scale(c).truncate(dmax)
    assert whole.table() == t.truncate(dmax)
    for s in slices.values():
        if s.total > dmax:
            above = NumeratorSum(t.space, dmax)
            above.add_slice(s, c)
            assert above.acc == {} and above.den == 1
    other = next(sp for sp in (PLANE.space, QUADRIC.space, P3.space) if sp != t.space)
    with pytest.raises(VariableMismatch):
        NumeratorSum(other, dmax).add_slice(Slice(pk, 0), c)


def test_numerator_path_checks_its_space():
    pk = Packing(SP, 3, [2, 2, 2])
    f = Operand(pk, table({((1,), (1, 0, 0)): Fraction(1, 3)}))
    with pytest.raises(VariableMismatch):
        NumeratorSum(Q_SP, 3).add_product(f, f, 2)
    acc = NumeratorSum(SP, 1)
    acc.add_product(f, f, 2)  # above the sum's dmax: left out
    assert len(acc.table()) == 0


SUM_KEYS = st.tuples(st.tuples(st.integers(0, 3)), st.tuples(*[st.integers(0, 2)] * 3))
SUM_OPS = st.lists(
    st.one_of(
        # denominators that divide one another and ones that do not
        st.tuples(st.just("put"), SUM_KEYS, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 5, 7, 12, 35])),
        st.tuples(st.just("read"), exact_tables(SP), SUM_KEYS),
        st.tuples(st.just("add"), exact_tables(SP), COEFS, st.sampled_from([{}, {"v": 1}, {"u": 1, "w": 2}])),
    ),
    max_size=10,
)


@settings(max_examples=100, deadline=None)
@given(SUM_OPS)
def test_numerator_sum_equals_a_fraction_dict(ops):
    """Random `put`, `read` and `add` on one sum of dmax 3: its values stay
    those of a dict of Fractions, the denominator grows only to the lcm that
    each step needs (an integral `put` never grows it), a read is the
    table's value over the sum's denominator, and the table is in lowest
    terms."""
    acc, ref = NumeratorSum(SP, 3), {}
    for op, *args in ops:
        before = acc.den
        if op == "put":
            key, num, den = args
            acc.put(key, num, den)
            ref[key] = Fraction(num, den)
            assert acc.den == lcm(before, ref[key].denominator)
        elif op == "read":
            t, key = args
            assert Fraction(acc.read(t, key), acc.den) == t.entries.get(key, 0)
            assert acc.den == lcm(before, t.den)
        else:
            t, c, mono = args
            acc.add(t, [(c, mono)])
            for key, val in naive_times_poly(t, [(c, mono)]).items():
                if sum(key[0]) <= 3:
                    ref[key] = ref.get(key, 0) + val
        assert {k: Fraction(num, acc.den) for k, num in acc.acc.items() if num} == {k: v for k, v in ref.items() if v}
    out = acc.table()
    assert_clean(out)
    assert_exact(out, {k: v for k, v in ref.items() if v})


def test_operand_rejects_exponents_above_its_bounds_and_a_second_slice():
    pk = Packing(SP, 3, [2, 2, 2])
    op = Operand(pk, table({((1,), (2, 1, 0)): 3}))
    with pytest.raises(ValueError, match="bounds"):
        op.extend(table({((2,), (3, 0, 0)): 1}))
    with pytest.raises(ValueError, match="already prepared"):
        op.extend(table({((1,), (0, 0, 1)): 1}))
    other = Operand(Packing(SP, 3, [2, 2, 2]), table({((1,), (0, 0, 0)): 1}))
    with pytest.raises(ValueError, match="packing"):
        series_product(op, other)
    with pytest.raises(TypeError):
        series_product(op, table({((1,), (0, 0, 0)): 1}))


def test_sum_keeps_the_other_tables_new_keys_as_they_are():
    f = table({((1,), (1, 0, 0)): Fraction(1, 3), ((1,), (0, 1, 0)): 2})
    g = table({((1,), (1, 0, 0)): Fraction(-1, 3), ((2,), (0, 0, 1)): Fraction(5, 7)})
    out = f + g
    assert out.entries == {((1,), (0, 1, 0)): 2, ((2,), (0, 0, 1)): Fraction(5, 7)}


@settings(max_examples=60, deadline=None)
@given(bounded_tables(), bounded_tables(), st.fractions(min_value=-2, max_value=2))
def test_entries_view_round_trips(f, g, c):
    for t in (f, f.scale(c), f + g, f - f, f * g, PLANE.point(f), f.partial("s")):
        assert SeriesTable(t.space, t.dmax, t.entries) == t


def test_level_solvers_never_read_the_entries_view(monkeypatch, gw_p2, g0_p2, p2_genus1_seeds,
                                                   gw_quadric, quadric_genus1_seeds):
    """The solvers work on numerators: no Fraction table is built inside
    them, and no value is read as a Fraction through `coeff`."""
    reads = []
    view, coeff = SeriesTable.entries, SeriesTable.coeff
    monkeypatch.setattr(SeriesTable, "entries", property(lambda t: reads.append(t) or view.fget(t)))
    monkeypatch.setattr(SeriesTable, "coeff", lambda t, *key: reads.append(t) or coeff(t, *key))
    PLANE.genus0(gw_p2, 4)
    charnum_genus1(g0_p2, p2_genus1_seeds, 4)
    PLANE.genus1_virtual(gw_p2, p2_genus1_seeds, 4)
    QUADRIC.genus0(gw_quadric, 4, (2, 2))
    QUADRIC.genus1_virtual(gw_quadric, quadric_genus1_seeds, 4, (2, 2))
    QUADRIC.genus1(QUADRIC.genus0(gw_quadric, 4), quadric_genus1_seeds, 4)
    assert reads == []
    assert g0_p2.entries and reads == [g0_p2]  # the spies see a read
    assert g0_p2.coeff((1,), (2, 0, 0)) and reads == [g0_p2, g0_p2]
