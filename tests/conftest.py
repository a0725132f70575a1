from __future__ import annotations

import sys
from pathlib import Path

import pytest

import charnum
from charnum.geometry import builtin_geometry
from charnum.gw import wdvv_solve
from charnum.planecurves import PLANE, charnum_genus0, charnum_genus1, genus2_corrections
from charnum.quadric import hurwitz, quadric_genus0, quadric_genus1
from charnum.seeds import default_gw_seeds, load_genus1_seeds, packaged_seed_text
from charnum.series import format_rat


@pytest.fixture(scope="session", autouse=True)
def no_bytecode_in_the_package():
    """A run that writes no bytecode must leave none beside the sources: a
    later benchmark in the same checkout would start warm.  A test that runs
    a child Python must pass PYTHONDONTWRITEBYTECODE on to it."""
    cache = Path(charnum.__file__).resolve().parent / "__pycache__"
    watch = sys.dont_write_bytecode and not cache.exists()
    yield
    if watch and cache.exists():
        pytest.fail(f"the tests wrote bytecode into {cache}", pytrace=False)


@pytest.fixture(scope="session")
def p2():
    return builtin_geometry("p2")


@pytest.fixture(scope="session")
def quadric():
    return builtin_geometry("p1xp1")


@pytest.fixture(scope="session")
def gr24():
    return builtin_geometry("gr24")


@pytest.fixture(scope="session")
def gw_p2(p2):
    return wdvv_solve(p2, default_gw_seeds(p2), 5)


@pytest.fixture(scope="session")
def gw_quadric(quadric):
    return wdvv_solve(quadric, default_gw_seeds(quadric), 6)


@pytest.fixture(scope="session")
def g0_p2(gw_p2):
    return charnum_genus0(gw_p2, 4)


@pytest.fixture(scope="session")
def p2_genus1_seeds(p2):
    return load_genus1_seeds(packaged_seed_text("p2-genus1"), p2)


@pytest.fixture(scope="session")
def g1_p2(g0_p2, p2_genus1_seeds):
    return charnum_genus1(g0_p2, p2_genus1_seeds, 4)


@pytest.fixture(scope="session")
def quadric_genus1_seeds(quadric):
    return load_genus1_seeds(packaged_seed_text("p1xp1-genus1"), quadric)


@pytest.fixture(scope="session")
def g0_quadric(gw_quadric):
    return quadric_genus0(gw_quadric, 5)


@pytest.fixture(scope="session")
def g1_quadric(gw_quadric, quadric_genus1_seeds):
    return quadric_genus1(gw_quadric, quadric_genus1_seeds, 5)


@pytest.fixture(scope="session")
def hurwitz_table():
    return hurwitz(1, 5)


@pytest.fixture(scope="session")
def virtual2_ones(g0_p2, g1_p2):
    """A complete genus-2 virtual file at d = 4 whose every genus-2 number is
    1: each record is the genus-2 correction at its stratum plus 1."""
    corrections = genus2_corrections(g0_p2, g1_p2)
    return "".join(
        f"4;{a},{b},{c};{format_rat(corrections.coeff((4,), (a, b, c)) + 1)}\n" for a, b, c in PLANE.strata(2, 4)
    )
