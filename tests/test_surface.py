from __future__ import annotations

import pytest

from charnum.descend import TangencySpace, genus0_tangency_potential
from charnum.geometry import builtin_geometry
from charnum.gw import wdvv_solve
from charnum.planecurves import PLANE, charnum_genus0
from charnum.quadric import QUADRIC, quadric_genus0
from charnum.seeds import default_gw_seeds
from charnum.series import DiffOperator, SeriesTable


def _genus1_virtual(surface):
    return lambda gw, dmax: surface.genus1_virtual(gw, SeriesTable(surface.space, dmax), {}, dmax)


@pytest.mark.parametrize(
    "solver, wrong_gw",
    [
        (charnum_genus0, "gw_quadric"),
        (quadric_genus0, "gw_p2"),
        pytest.param(_genus1_virtual(PLANE), "gw_quadric", id="PLANE.genus1_virtual-gw_quadric"),
        pytest.param(_genus1_virtual(QUADRIC), "gw_p2", id="QUADRIC.genus1_virtual-gw_p2"),
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
    mapping = surface.tangency_map(geom)
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
    potential = genus0_tangency_potential(geom, gw, dmax, box)
    assert direct.entries
    assert direct.entries == potential.substitute(surface.space, surface.tangency_map(geom)).entries


def test_operators_see_each_level_once(p2, monkeypatch):
    """The line and point operators act on each degree slice a bounded number
    of times, not on the whole lower table at every level."""
    gw = wdvv_solve(p2, default_gw_seeds(p2), 7)
    seen = []
    apply = DiffOperator.__call__

    def counted(op, f):
        seen.append(len(f))
        return apply(op, f)

    monkeypatch.setattr(DiffOperator, "__call__", counted)
    result = PLANE.genus0(gw, 7)
    assert sum(seen) <= 4 * len(result)
