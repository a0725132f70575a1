from __future__ import annotations

import pytest

from charnum.gw import wdvv_solve
from charnum.planecurves import PLANE, charnum_genus0
from charnum.quadric import quadric_genus0
from charnum.seeds import default_gw_seeds
from charnum.series import DiffOperator


@pytest.mark.parametrize(
    "solver, wrong_gw",
    [(charnum_genus0, "gw_quadric"), (quadric_genus0, "gw_p2")],
)
def test_genus0_rejects_the_other_geometry(solver, wrong_gw, request):
    with pytest.raises(ValueError, match="geometry"):
        solver(request.getfixturevalue(wrong_gw), 2)


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
