from __future__ import annotations

import pytest

from charnum.planecurves import charnum_genus0
from charnum.quadric import quadric_genus0


@pytest.mark.parametrize(
    "solver, wrong_gw",
    [(charnum_genus0, "gw_quadric"), (quadric_genus0, "gw_p2")],
)
def test_genus0_rejects_the_other_geometry(solver, wrong_gw, request):
    with pytest.raises(ValueError, match="geometry"):
        solver(request.getfixturevalue(wrong_gw), 2)
