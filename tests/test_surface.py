from __future__ import annotations

from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charnum.descend import TangencySpace, genus0_tangency_potential
from charnum.geometry import builtin_geometry, load_geometry
from charnum.gw import GWTable, wdvv_solve
from charnum.oracles import hurwitz_bruteforce
from charnum.planecurves import PLANE, charnum_genus0
from charnum.quadric import QUADRIC, Q_SPACE, quadric_genus0
from charnum.seeds import default_gw_seeds
from charnum.series import DiffOperator, Operand, SeriesTable
from charnum.surface import Surface
from test_quadric import BOXES

V, V2, W = (("v", 1),), (("v", 2),), (("w", 1),)


def _genus1_virtual(surface):
    return lambda gw, dmax: surface.genus1_virtual(gw, {}, dmax)


@pytest.fixture(scope="module")
def gw_doubled_point():
    """An empty table over a ring named p2 that is P^2 with the point class doubled."""
    text = builtin_geometry("p2").to_text()
    text = text.replace("0 0 1\n0 1 0\n1 0 0", "0 0 2\n0 1 0\n2 0 0").replace("cup 1 1 = 0 0 1\n", "cup 1 1 = 0 0 1/2\n")
    return GWTable(load_geometry(text), 2)


@pytest.mark.parametrize(
    "solver, wrong_gw",
    [
        (charnum_genus0, "gw_quadric"),
        (quadric_genus0, "gw_p2"),
        (charnum_genus0, "gw_doubled_point"),
        pytest.param(_genus1_virtual(PLANE), "gw_quadric", id="PLANE.genus1_virtual-gw_quadric"),
        pytest.param(_genus1_virtual(QUADRIC), "gw_p2", id="QUADRIC.genus1_virtual-gw_p2"),
        pytest.param(_genus1_virtual(PLANE), "gw_doubled_point", id="PLANE.genus1_virtual-gw_doubled_point"),
    ],
)
def test_genus0_rejects_the_other_geometry(solver, wrong_gw, request):
    with pytest.raises(ValueError, match="geometry"):
        solver(request.getfixturevalue(wrong_gw), 2)


@pytest.mark.parametrize(
    "surface, geom_fixture, expected",
    [
        (PLANE, "p2", {"x2": [(1, "u"), (1, "v")], "y1": [(1, "v")], "y2": [(1, "w")]}),
        (
            QUADRIC,
            "quadric",
            {"x3": [(1, "u"), (2, "v")], "y1": [(1, "v")], "y2": [(1, "v")], "y3": [(1, "w")]},
        ),
    ],
    ids=["PLANE", "QUADRIC"],
)
def test_tangency_map_is_the_change_of_variables(surface, geom_fixture, expected, request):
    """The derived map is x2 = u + v, y1 = v, y2 = w on the plane and
    x3 = u + 2v, y1 = y2 = v, y3 = w on the quadric, and it covers every
    exponent variable of the tangency potentials."""
    geom = request.getfixturevalue(geom_fixture)
    mapping = surface.tangency_map()
    assert mapping == expected
    assert set(mapping) == set(TangencySpace(geom).space.exp_vars)


@pytest.mark.parametrize(
    "surface, name, dmax, box",
    [(PLANE, "p2", 6, None), (QUADRIC, "p1xp1", 5, None), (QUADRIC, "p1xp1", 6, (3, 3)),
     (QUADRIC, "p1xp1", 6, (4, 2))],
    ids=["p2-d6", "p1xp1-d5", "p1xp1-3,3", "p1xp1-4,2"],
)
def test_genus0_equals_the_substituted_tangency_potential(surface, name, dmax, box):
    """The genus-0 characteristic numbers by the level loop in (u, v, w) and
    by the first-descendant potential, a recursion over the x/y slots of the
    target, after the change of variables `tangency_map`."""
    geom = builtin_geometry(name)
    gw = wdvv_solve(geom, default_gw_seeds(geom), dmax)
    direct = surface.genus0(gw, dmax, box)
    potential = genus0_tangency_potential(TangencySpace(geom), gw, dmax, box)
    assert direct.entries
    assert direct.entries == potential.substitute(surface.space, surface.tangency_map()).entries


@pytest.mark.parametrize(
    "surface, name, dmax",
    [(PLANE, "p2", d) for d in range(1, 6)] + [(QUADRIC, "p1xp1", d) for d in range(1, 6)],
    ids=[f"p2-d{d}" for d in range(1, 6)] + [f"p1xp1-d{d}" for d in range(1, 6)],
)
def test_genus1_equals_the_virtual_route(surface, name, dmax, request):
    """The genus-1 level loop in (u, v, w), seeded by G^0 of the genus-0 loop,
    and the substituted genus-1 tangency potential give one table."""
    gw = request.getfixturevalue("gw_p2" if name == "p2" else "gw_quadric")
    seeds = request.getfixturevalue("p2_genus1_seeds" if name == "p2" else "quadric_genus1_seeds")
    direct = surface.genus1(surface.genus0(gw, dmax), seeds, dmax)
    # every genus-1 number of total degree 1 is 0
    assert bool(direct.entries) == (dmax > 1)
    assert direct == surface.genus1_virtual(gw, seeds, dmax)[0]


def test_quadric_genus1_by_the_level_loop(gw_quadric, quadric_genus1_seeds, g1_quadric, hurwitz_table):
    """The quadric's second genus-1 route: the level loop, less the same cover
    pairing as `quadric_genus1`, cut to d1, d2 >= 1."""
    g0 = QUADRIC.genus0(gw_quadric, 5)
    covers = QUADRIC.cover({(d, b): val for (g, d, b), val in hurwitz_table.items() if g == 1}, 5)
    g1 = QUADRIC.genus1(g0, quadric_genus1_seeds, 5) - QUADRIC.pair(covers, g0)
    assert g1.filter_keys(lambda deg, mono: deg[0] >= 1 and deg[1] >= 1) == g1_quadric


def test_operators_see_each_level_once(p2, monkeypatch):
    """The line and point operators act on each packed degree slice a bounded
    number of times, not on the whole lower table at every level."""
    gw = wdvv_solve(p2, default_gw_seeds(p2), 7)
    seen = []
    apply = DiffOperator.image

    def counted(op, f):
        seen.append(sum(map(len, f.groups.values())))
        return apply(op, f)

    monkeypatch.setattr(DiffOperator, "image", counted)
    result = PLANE.genus0(gw, 7)
    assert sum(seen) <= 4 * len(result)
    # each operator once on each of the levels 1..6, which feed the levels above
    assert len(seen) == (1 + len(PLANE.lines)) * 6


def _tables(space):
    degs = st.tuples(*[st.integers(0, 3)] * len(space.degree_vars))
    exps = st.tuples(*[st.integers(0, 3)] * len(space.exp_vars))
    entries = st.dictionaries(st.tuples(degs, exps), st.fractions(-5, 5, max_denominator=12), max_size=10)
    return st.builds(lambda dmax, d: SeriesTable(space, dmax, d), st.integers(1, 6), entries)


SURFACE_TABLES = st.sampled_from([PLANE, QUADRIC]).flatmap(lambda s: st.tuples(st.just(s), _tables(s.space)))


@settings(max_examples=60, deadline=None)
@given(SURFACE_TABLES)
def test_operators_commute_with_ds_and_d_du(surface_table):
    """P, the L_i and B have coefficients in v and w only, so the level loops
    may apply them once to G and take ds and d/du of the images."""
    surface, f = surface_table
    for op in (surface.point, *surface.lines, surface._genus1_block):
        assert surface.ds(op(f)) == op(surface.ds(f))
        assert op(f).partial("u") == op(f.partial("u"))


@settings(max_examples=60, deadline=None)
@given(SURFACE_TABLES)
def test_w_zero_part_of_an_image_reads_only_w_zero(surface_table):
    """The operators never lower w, so cutting an image to w = 0 gives what
    cutting both its argument and the image gives."""
    surface, f = surface_table
    w = surface.space.exp_index("w")

    def flat(t):
        return t.filter_keys(lambda deg, mono: not mono[w])

    for image, of_flat in zip(surface.images(f), surface.images(flat(f))):
        assert flat(image) == flat(of_flat)


def _count_calls(monkeypatch, names):
    calls = []
    for name in names:
        method = getattr(Surface, name)
        monkeypatch.setattr(Surface, name, lambda self, f, _m=method, _n=name: calls.append(_n) or _m(self, f))
    return calls


@pytest.mark.parametrize(
    "surface, g0, seeds",
    [(PLANE, "g0_p2", "p2_genus1_seeds"), (QUADRIC, "g0_quadric", "quadric_genus1_seeds")],
    ids=["PLANE", "QUADRIC"],
)
def test_genus1_forms_the_images_and_block_of_g0_once(surface, g0, seeds, request, monkeypatch):
    """B of G^0 once, and the images of each slice of G^0 once: the slices
    of total degree 1..3 feed the products of levels 2..4, and P's image of
    each of the 4 slices gives the term P G^0, so no operator meets a table."""
    g0, seeds = request.getfixturevalue(g0), request.getfixturevalue(seeds)
    calls = _count_calls(monkeypatch, ("slice_images", "_genus1_block"))
    tables = _calls_during(monkeypatch, lambda: surface.genus1(g0, seeds, 4), [(DiffOperator, "__call__")])
    assert sorted(calls) == ["_genus1_block"] + ["slice_images"] * 4
    assert tables == {"DiffOperator.__call__": 0}


@pytest.mark.parametrize("surface, gw", [(PLANE, "gw_p2"), (QUADRIC, "gw_quadric")], ids=["PLANE", "QUADRIC"])
def test_genus0_forms_the_images_once_per_level(surface, gw, request, monkeypatch):
    gw = request.getfixturevalue(gw)
    calls = _count_calls(monkeypatch, ("slice_images",))
    surface.genus0(gw, 5)
    # the last level feeds no level above it
    assert calls == ["slice_images"] * 4


def _calls_during(monkeypatch, run, methods) -> dict[str, int]:
    """The number of calls of each (class, method name) of `methods` in run()."""
    counts = {f"{cls.__name__}.{name}": 0 for cls, name in methods}
    for cls, name in methods:
        method, label = getattr(cls, name), f"{cls.__name__}.{name}"

        def spy(*args, _m=method, _label=label, **kwargs):
            counts[_label] += 1
            return _m(*args, **kwargs)

        monkeypatch.setattr(cls, name, spy)
    run()
    monkeypatch.undo()
    return counts


def test_level_loops_make_no_table_round_trip(p2, gw_quadric, quadric_genus1_seeds, monkeypatch):
    """A level loop packs each solved level once and derives its factor
    slices from it: the plane genus-0 loop prepares no table operand, takes
    no table partial and applies no operator to a table, and the quadric
    tangency potentials prepare no table operand."""
    gw = wdvv_solve(p2, default_gw_seeds(p2), 8)
    watched = [(Operand, "extend"), (SeriesTable, "partial"), (DiffOperator, "__call__"), (Operand, "append")]
    counts = _calls_during(monkeypatch, lambda: PLANE.genus0(gw, 8), watched)
    assert counts["Operand.append"] > 0
    assert {k: v for k, v in counts.items() if k != "Operand.append"} == {
        "Operand.extend": 0, "SeriesTable.partial": 0, "DiffOperator.__call__": 0
    }
    run = lambda: QUADRIC.genus1_virtual(gw_quadric, quadric_genus1_seeds, 5, (3, 2))  # noqa: E731
    counts = _calls_during(monkeypatch, run, [(Operand, "extend"), (Operand, "append")])
    assert counts["Operand.append"] > 0 and counts["Operand.extend"] == 0


def test_surface_is_its_geometry_and_variables():
    """Everything else a surface holds is derived from these two."""
    assert [f.name for f in fields(Surface) if f.init] == ["geom", "space"]


@pytest.mark.parametrize(
    "surface, c1, d_sq, lines, point",
    [
        (
            PLANE,
            3,
            1,
            [{(1, (), "s"), (2, V, "u")}],
            {(2, V, "s"), (2, V2, "u"), (2, W, "u")},
        ),
        (
            QUADRIC,
            2,
            2,
            [{(1, (), "u2"), (2, V, "u")}, {(1, (), "u1"), (2, V, "u")}],
            {(2, V, "u1"), (2, V, "u2"), (4, V2, "u"), (2, W, "u")},
        ),
    ],
    ids=["PLANE", "QUADRIC"],
)
def test_derived_data_equal_the_hand_tables(surface, c1, d_sq, lines, point):
    """c1, D.D and the (coefficient, monomial, variable) terms of the line and
    point operators, derived from the ring, against the hand-entered tables:
    L = d/ds + 2v d/du and P = 2v d/ds + (2v^2 + 2w) d/du on the plane;
    L1 = d/du2 + 2v d/du, L2 = d/du1 + 2v d/du and
    P = 2v d/du1 + 2v d/du2 + (4v^2 + 2w) d/du on the quadric."""
    assert (surface.c1, surface.d_sq) == (c1, d_sq)
    assert [set(line.terms) for line in surface.lines] == lines
    assert set(surface.point.terms) == point


def test_rule_cover_of_both_rulings_is_i_plus_j(hurwitz_table):
    """On the quadric (k = 1, D.D = 2) the cover term is the hand-entered
    operator u (d/du1 + d/du2) + (v^2 + w) d/dv on H1 placed on both
    rulings: I + J."""
    rule_cover = DiffOperator.build([(1, {"u": 1}, "u1"), (1, {"u": 1}, "u2"), (1, {"v": 2}, "v"), (1, {"w": 1}, "v")])
    dmax = 5
    h1 = {(d, b): val for (g, d, b), val in hurwitz_table.items() if g == 1}
    on_both = {(beta, (0, b, 0)): val for (d, b), val in h1.items() for beta in ((d, 0), (0, d))}
    covers = QUADRIC.cover(h1, dmax)
    # I (d2 = 0) and J (d1 = 0) are both there
    assert {deg.index(0) for deg, _ in covers.entries} == {0, 1}
    assert rule_cover(SeriesTable(Q_SPACE, dmax, on_both)) == covers


# -- the excess of the covers --------------------------------------------------


def double_covers(genus):
    """The plane's Hurwitz numbers: genus-g double covers of a line."""
    return {(2, 2 * genus + 2): Fraction(1, 2)}


def _height(surface, genus, deg, mono):
    """a + b + 2c above the genus-g dimension c1 n - 1 + g."""
    a, b, c = mono
    return a + b + 2 * c - (surface.c1 * sum(deg) - 1 + genus)


@pytest.mark.parametrize("surface", [PLANE, QUADRIC], ids=["PLANE", "QUADRIC"])
@pytest.mark.parametrize("genus", [1, 2])
def test_cover_entries_sit_at_the_dimension_of_their_family(surface, genus):
    """Genus-g covers of degree d form a family of dimension 2d + 2g - 2 + k:
    the branch points and the k = c1 - 1 pins."""
    hurwitz = {(d, 2 * d + 2 * genus - 2): hurwitz_bruteforce(d, 2 * d + 2 * genus - 2) for d in (2, 3)}
    covers = surface.cover(hurwitz, 3)
    assert {max(deg) for deg, _ in covers.entries} == {2, 3}
    for deg, (a, b, c) in covers.entries:
        assert a + b + 2 * c == 2 * sum(deg) + 2 * genus - 2 + surface.c1 - 1


@pytest.mark.parametrize(
    "surface, hurwitz, genus, height",
    [(PLANE, double_covers(1), 1, 0), (PLANE, double_covers(2), 2, 1), (QUADRIC, "hurwitz_table", 1, 1)],
    ids=["PLANE-genus1", "PLANE-genus2", "QUADRIC-genus1"],
)
def test_cover_entries_of_each_surface_sit_on_or_one_above_the_dimension(surface, hurwitz, genus, height, request):
    if isinstance(hurwitz, str):
        hurwitz = {(d, b): val for (g, d, b), val in request.getfixturevalue(hurwitz).items() if g == genus}
    covers = surface.cover(hurwitz, 5)
    assert covers.entries
    assert {_height(surface, genus, deg, mono) for deg, mono in covers.entries} == {height}


def test_plane_genus1_excess_is_e_and_pairs_nothing(g0_p2, monkeypatch):
    calls = []
    pair = Surface.pair
    monkeypatch.setattr(Surface, "pair", lambda self, *args: calls.append(args) or pair(self, *args))
    excess = PLANE.excess(double_covers(1), g0_p2, 1)
    assert excess == PLANE.cover(double_covers(1), 2)
    assert excess.entries and not calls


def test_plane_genus2_excess_pairs_h_with_g0(p2):
    h = PLANE.cover(double_covers(2), 2)
    g0 = charnum_genus0(wdvv_solve(p2, default_gw_seeds(p2), 6), 6)
    for dmax in range(1, 7):
        g0_cut = g0.truncate(dmax)
        assert PLANE.excess(double_covers(2), g0_cut, 2) == PLANE.pair(h.truncate(dmax), g0_cut)


@pytest.mark.parametrize("box", BOXES, ids=lambda box: f"{box[0]},{box[1]}")
def test_quadric_excess_pairs_the_rule_covers_with_g0(box, gw_quadric, hurwitz_table):
    g0 = QUADRIC.genus0(gw_quadric, sum(box), box)
    h1 = {(d, b): val for (g, d, b), val in hurwitz_table.items() if g == 1}
    assert QUADRIC.excess(h1, g0, 1, box) == QUADRIC.pair(QUADRIC.cover(h1, g0.dmax), g0, box)
