"""Seed-table ingestion: externally supplied invariants (genus-1 counts and
genus-2 virtual numbers) that the recursions consume but do not produce."""

from __future__ import annotations

from fractions import Fraction
from importlib import resources
from pathlib import Path

from .geometry import TargetGeometry, builtin_name
from .gw import GWKey, InsufficientSeeds, parse_seed_records
from .planecurves import P2_SPACE, PLANE
from .series import Rat, SeriesTable, parse_rat

__all__ = [
    "packaged_seed_text",
    "load_gw_seeds",
    "load_genus1_seeds",
    "load_virtual2",
    "default_gw_seeds",
    "default_genus1_seed_name",
]

_PACKAGED = {
    "p2-genus1": "p2_genus1_gw.seeds",
    "p1xp1-genus1": "p1xp1_genus1_gw.seeds",
    "gr24-genus0-d1": "gr24_genus0_d1.seeds",
}


def packaged_seed_text(name: str) -> str:
    fname = _PACKAGED[name]
    return resources.files("charnum.data").joinpath(fname).read_text()


def load_gw_seeds(text: str, geom: TargetGeometry) -> dict[GWKey, Rat]:
    return parse_seed_records(text, geom)


def default_gw_seeds(geom: TargetGeometry) -> dict[GWKey, Rat]:
    """Minimal genus-0 seeds per built-in target.

    Projective spaces: the single line through two points.  The quadric: one
    rule of each ruling through a point.  Gr(2,4): the packaged degree-1 set.
    A config that holds another ring than the built-in of its name has none.
    """
    name = builtin_name(geom)
    if name is None:
        raise ValueError(f"no default seeds for target {geom.name!r}")
    if name.startswith("p") and name[1:].isdigit():
        r = int(name[1:])
        if r == 1:
            return {((1,), ()): Fraction(1)}
        return {((1,), (r, r)): Fraction(1)}
    if name == "p1xp1":
        return {((1, 0), (3,)): Fraction(1), ((0, 1), (3,)): Fraction(1)}
    return load_gw_seeds(packaged_seed_text("gr24-genus0-d1"), geom)


def default_genus1_seed_name(geom: TargetGeometry) -> str | None:
    return {"p2": "p2-genus1", "p1xp1": "p1xp1-genus1"}.get(builtin_name(geom))


def load_genus1_seeds(text: str, geom: TargetGeometry) -> dict[tuple, Rat]:
    """Genus-1 point-only seeds as {curve class: value}.

    Each record must sit in the unique psi-free stratum of its class (all
    insertions the point class, in the gated number).
    """
    out: dict[tuple, Rat] = {}
    for (beta, key), val in parse_seed_records(text, geom).items():
        if any(i != geom.point for i in key):
            raise ValueError(f"genus-1 seed at beta={beta} must carry only point insertions")
        expect = geom.vdim(1, beta, 0) // geom.steps[geom.point]
        if len(key) != expect:
            raise ValueError(
                f"genus-1 seed at beta={beta} has {len(key)} point insertions, expected {expect}"
            )
        out[tuple(beta)] = val
    return out


def load_virtual2(text: str, dmax: int) -> SeriesTable:
    """Genus-2 virtual characteristic numbers of the plane: d;a,b,c;p/q,
    each on the genus-2 stratum a + b + 2c = 3d + 1 of its degree.  Every
    (a, b, c) of that stratum needs a record at each degree 4 <= d <= dmax,
    zeros written out; the first one missing, in `PLANE.strata` order, raises
    InsufficientSeeds."""
    entries = {}
    seen: dict[tuple, int] = {}  # key -> its line
    for n, ln in enumerate(text.splitlines(), 1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        try:
            d, mono, v = ln.split(";")
            d = int(d)
            a, b, c = (int(x) for x in mono.split(","))
            val = parse_rat(v)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"line {n}: expected a record d;a,b,c;p/q, got {ln!r}") from None
        if min(d, a, b, c) < 0:
            raise ValueError(f"line {n}: the degree and the counts must not be negative")
        if a + b + 2 * c != 3 * d + 1:
            raise ValueError(f"line {n}: a genus-2 record of degree {d} needs a+b+2c = {3 * d + 1}, got {a + b + 2 * c}")
        key = ((d,), (a, b, c))
        if key in seen:
            raise ValueError(f"line {n}: repeats the record of line {seen[key]}")
        seen[key] = n
        entries[key] = val
    for d in range(4, dmax + 1):
        for a, b, c in PLANE.strata(2, d):
            if ((d,), (a, b, c)) not in seen:
                raise InsufficientSeeds(f"missing genus-2 virtual record {d};{a},{b},{c} (zeros must be written out)")
    return SeriesTable(P2_SPACE, dmax, entries)


def read_seed_file(path: str | Path) -> str:
    """The text of a seed file.  A path that is missing or cannot be read (a
    directory, say) raises FileNotFoundError naming it."""
    p = Path(path)
    try:
        return p.read_text()
    except OSError as e:
        raise FileNotFoundError(f"{p}: {e.strerror}") from None
