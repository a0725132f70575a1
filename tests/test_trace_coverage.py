"""The benchmark's `--trace 1` coverage, in tier-1: under `spans.Tracer`, a
small set of requests per workload calls every traced function of the layer
rows that should move on that workload.  A rename or a moved call that the
tracer no longer sees fails here, not only in a traced benchmark run."""

from __future__ import annotations

import io
import sys
from pathlib import Path

import pytest

import charnum.cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402

REQUESTS = {
    "plane": [["compute", "--target", "p2", "--genus", "1", "--dmax", "3"]],
    "quadric": [
        ["compute", "--target", "p1xp1", "--genus", "1", "--dmax", "2,2"],
        ["compute", "--target", "p1xp1", "--genus", "0", "--dmax", "2,2"],
    ],
    "wdvv": [["gw", "--target", "p3", "--dmax", "2"]],
    "recursion": [
        ["descendant", "tau0(T2)^6 tau1(T1)^2 @ g=0 d=3", "--cache", "{cache}"],
        ["verify", "--suite", "hurwitz"],
        ["verify", "--suite", "p2-genus0"],
        ["verify", "--suite", "metric"],
    ],
}


@pytest.mark.parametrize("workload", list(REQUESTS))
def test_small_requests_cover_every_layer_row_of_the_workload(workload, tmp_path):
    cache = str(tmp_path / "trace.cache")
    tracer = spans.Tracer()
    with tracer:
        for argv in REQUESTS[workload]:
            assert charnum.cli.run([a.format(cache=cache) for a in argv], out=io.StringIO()) == 0
    assert tracer.check_coverage(workload) == []
