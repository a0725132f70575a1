"""Every function in src/charnum runs under some CLI request.

A child process starts `sys.setprofile` before `import charnum`, then runs
`cli.run` on REQUESTS: every subcommand and output format, a config target,
a genus-2 request with a complete virtual file, a cached descendant that
finds its cache directory through CHARNUM_CACHE_DIR, and the error paths.
A `def` whose code never started is dead code, unless it is in EXEMPT.
Functions are identified by file and first line (the first decorator's line
for a decorated one), which is also how the profiler sees them.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from charnum.geometry import builtin_geometry
from charnum.planecurves import PLANE
from charnum.seeds import packaged_seed_text

SRC = Path(__file__).resolve().parent.parent / "src"

# Functions that no request runs on purpose: the console entry point (this
# test calls `cli.run` in-process), the reference checks that tests compare
# the recursions against, and SeriesTable's container protocol.
EXEMPT = {
    "cli.main",
    "descend.genus0_pde_residual",
    "descend.genus0_integrated_residual",
    "descend.TangencySpace.poly_times",
    "descend.DescendantEngine.value_with_choice",
    "descend.DescendantSpec.psi_total",
    "gw.sample_wdvv_residuals",
    "oracles._pieri",
    "oracles._pieri_poly",
    "oracles.schubert_gr24_product",
    "oracles.schubert_gr24_cup_table",
    "series.SeriesTable.__mul__",
    "series.SeriesTable.__len__",
    "series.SeriesTable.__eq__",
    "series.SeriesTable.__hash__",
    "series.SeriesTable.__repr__",
}

# (argv, exit code); {dir} is a fresh temporary directory holding the files below
REQUESTS = [
    (["compute", "--target", "p2", "--genus", "0", "--dmax", "3"], 0),
    (["compute", "--target", "p2", "--genus", "1", "--dmax", "3", "--format", "csv"], 0),
    (["compute", "--target", "p2", "--genus", "2", "--dmax", "4", "--virtual2", "{dir}/virtual2", "--format", "md"], 0),
    (["compute", "--target", "p2", "--genus", "2", "--dmax", "4", "--virtual2", "{dir}/partial2"], 3),
    (["compute", "--target", "p2", "--genus", "2", "--dmax", "4", "--virtual2", "{dir}/zero2"], 1),
    (["compute", "--target", "p2", "--genus", "2", "--dmax", "4"], 3),
    (["compute", "--target", "p2", "--genus", "2", "--dmax", "3"], 3),
    (["compute", "--target", "p2", "--genus", "1", "--dmax", "6"], 3),
    (["compute", "--target", "p2", "--genus", "1", "--dmax", "3", "--seeds", "{dir}/fractional.seeds"], 1),
    (["compute", "--target", "p1xp1", "--genus", "1", "--dmax", "2,2", "--format", "md"], 0),
    (["compute", "--target", "p1xp1", "--genus", "1", "--dmax", "2,2", "--seeds", "{dir}/rational.seeds"], 1),
    (["compute", "--target", "p1xp1", "--genus", "0", "--dmax", "2,1", "--format", "csv"], 0),
    (["compute", "--target", "p1xp1", "--genus", "2", "--dmax", "2,2"], 2),
    (["compute", "--target", "p1xp1", "--genus", "0", "--dmax", "3"], 2),
    (["compute", "--target", "p3", "--genus", "0", "--dmax", "1"], 2),
    (["gw", "--target", "p3", "--dmax", "2", "--format", "csv"], 0),
    (["gw", "--target", "p1xp1", "--dmax", "1,1", "--format", "md"], 0),
    (["metric", "--target", "{dir}/myplane.geom"], 0),
    (["gw", "--target", "p2", "--dmax", "2", "--seeds", "{dir}/conflict.seeds"], 1),
    (["gw", "--target", "gr24", "--dmax", "2"], 3),
    (["descendant", "tau0(T2)^6 tau1(T1)^2 @ g=0 d=3", "--cache", "{dir}/p2.cache"], 0),
    (["descendant", "tau0(T2)^6 tau1(T1)^2 @ g=0 d=3", "--cache", "{dir}/p2.cache"], 0),
    (["descendant", "tau0(T2)^4 tau1(T1) @ g=0 d=2"], 0),
    (["descendant", "tau0(T3)^2 tau1(T2)^2 @ g=0 d=1,1 target=p1xp1", "--no-cache"], 0),
    (["descendant", "tau0(T2)^8 tau1(T1) @ g=1 d=3"], 0),
    (["descendant", "tau0(T2)^8 tau1(T1) @ g=1 d=3", "--target", "{dir}/myplane.geom"], 3),
    (["descendant", "tau2(T1)^2 @ g=1 d=3"], 2),
    (["descendant", "tau0(T2)^2 @ g=2 d=1"], 2),
    (["descendant", "tau0(T2)^2 @ g=0 d=1", "--seeds", "{dir}/conflict.seeds"], 2),
    (["descendant", "tau0(T2)^2 @ d=1", "--target", "{dir}/myplane.geom", "--no-cache"], 2),
    (["descendant", "tau0(T2)^2 @ d=1", "--target", "{dir}/myplane.geom", "--no-cache", "--seeds", "{dir}/one.seeds"], 0),
    (["descendant", "tau0(T9)^2 @ d=1", "--no-cache"], 2),
    (["descendant", "tau0(T2)^2 @ d=1,1", "--no-cache"], 2),
    (["descendant", "tau0(T2 @ d=1"], 2),
    (["hurwitz", "--dmax", "4"], 0),
    (["hurwitz", "--dmax", "3", "--gmax", "0", "--format", "md"], 0),
    (["hurwitz", "--dmax", "x"], 2),
    (["metric", "--target", "p1xp1"], 0),
    (["metric", "--target", "p2", "--which", "lower"], 0),
    (["metric", "--target", "{dir}/missing.geom"], 2),
    (["verify", "--suite", "hurwitz"], 0),
    (["verify", "--suite", "p2-genus0"], 0),
    (["verify", "--suite", "p2-genus1"], 0),
    (["verify", "--suite", "metric"], 0),
    (["frobnicate"], 2),
]

CHILD = r"""
import io, json, sys

called = set()


def _profile(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(_profile)
import charnum.cli

codes = [charnum.cli.run(argv, out=io.StringIO()) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
json.dump({"codes": codes, "called": sorted(called)}, sys.stdout)
"""


def _defs() -> dict[tuple[str, int], str]:
    """(file, first line) -> module.Qualified.name of every def in src/charnum."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out[(str(path), min([child.lineno] + [d.lineno for d in child.decorator_list]))] = name
            visit(child, path, name)

    for path in sorted((SRC / "charnum").glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem)
    return out


def test_every_function_runs_under_some_request(tmp_path, virtual2_ones):
    (tmp_path / "virtual2").write_text(virtual2_ones)
    (tmp_path / "zero2").write_text("".join(f"4;{a},{b},{c};0\n" for a, b, c in PLANE.strata(2, 4)))
    (tmp_path / "partial2").write_text("4;13,0,0;0\n")
    (tmp_path / "conflict.seeds").write_text("1;0,0,2;1\n2;0,0,5;2\n")
    (tmp_path / "one.seeds").write_text("1;0,0,2;1\n")
    (tmp_path / "fractional.seeds").write_text("1;0,0,3;1/2\n2;0,0,6;0\n3;0,0,9;1\n")
    (tmp_path / "rational.seeds").write_text(
        packaged_seed_text("p1xp1-genus1").replace("1,2;0,0,0,6;0", "1,2;0,0,0,6;1")
    )
    (tmp_path / "myplane.geom").write_text(builtin_geometry("p2").to_text().replace("name p2", "name myplane"))
    argvs = [[a.format(dir=tmp_path) for a in argv] for argv, _ in REQUESTS]
    env = {**os.environ, "PYTHONPATH": str(SRC), "CHARNUM_CACHE_DIR": str(tmp_path / "cache")}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argvs)], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    called = {tuple(c) for c in result["called"]}
    defs = _defs()
    assert EXEMPT <= set(defs.values()), sorted(EXEMPT - set(defs.values()))
    never = sorted(name for key, name in defs.items() if key not in called and name not in EXEMPT)
    assert not never, f"functions no request runs: {never}"
    stale = sorted(name for key, name in defs.items() if key in called and name in EXEMPT)
    assert not stale, f"exempt functions that a request runs: {stale}"
    assert result["codes"] == [code for _, code in REQUESTS], proc.stderr
    assert (tmp_path / "cache" / "p2.cache").exists()
