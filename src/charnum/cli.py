"""Command-line surface.

Subcommands: compute (characteristic numbers), gw (Gromov-Witten tables),
descendant (a single tangency-descendant invariant), hurwitz, metric, and
verify (built-in consistency suites).  Values are always exact: "p/q", or
the bare integer when q = 1.  Output is deterministic byte-for-byte for
fixed inputs, across cold and warm caches.

Exit codes: 2 usage, 1 verification mismatch (seed data that two equations
of a solve contradict), 3 missing seed data or an out-of-scope request
(genus 2 below degree 4, a genus-1 descendant on a config target), 141
stdout closed before the output was written (as in `| head`; the status a
shell reports for a writer killed by SIGPIPE), with nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from . import __version__
from .cache import CacheFile, default_cache_dir
from .descend import (
    DescendantEngine,
    DescendantSpec,
    TangencySpace,
    dimension_valid,
    genus0_tangency_potential,
    genus1_tangency_potential,
    reduce_special,
)
from .geometry import GeometryError, TargetGeometry, builtin_geometry, builtin_name, load_geometry
from .gw import GWTable, InsufficientSeeds, SeedConflict, parse_seed_records, wdvv_solve
from .metric import deformed_metric, inverse_metric
from .oracles import run_verify_suite
from .planecurves import charnum_genus0, charnum_genus1, charnum_genus2
from .quadric import hurwitz as hurwitz_table
from .quadric import quadric_genus0, quadric_genus1
from .seeds import (
    default_genus1_seed_name,
    default_gw_seeds,
    load_genus1_seeds,
    load_virtual2,
    packaged_seed_text,
    read_seed_file,
)
from .series import SeriesTable, format_rat

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_MISSING_SEEDS = 3
EXIT_CLOSED_PIPE = 141


def _geometry(name_or_path: str) -> TargetGeometry:
    try:
        return builtin_geometry(name_or_path)
    except GeometryError:
        p = Path(name_or_path)
        if p.exists():
            try:
                text = p.read_text()
            except OSError as e:
                raise GeometryError(f"cannot read the geometry config {p}: {e.strerror}") from None
            return load_geometry(text)
        raise


def _emit(records: list[dict], fields: list[str], fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(records, sort_keys=True, separators=(",", ":")) + "\n")
    elif fmt == "csv":
        out.write(",".join(fields) + "\n")
        for r in records:
            out.write(",".join(_csv_cell(r[f]) for f in fields) + "\n")
    elif fmt == "md":
        widths = [max(len(f), *(len(_csv_cell(r[f])) for r in records)) if records else len(f) for f in fields]
        out.write("| " + " | ".join(f.ljust(w) for f, w in zip(fields, widths)) + " |\n")
        out.write("|" + "|".join("-" * (w + 2) for w in widths) + "|\n")
        for r in records:
            out.write("| " + " | ".join(_csv_cell(r[f]).ljust(w) for f, w in zip(fields, widths)) + " |\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _csv_cell(v) -> str:
    if isinstance(v, list):
        return ";".join(map(str, v))
    return str(v)


def _char_records(table: SeriesTable) -> list[dict]:
    records = []
    for (deg, mono), val in sorted(table.entries.items()):
        d = deg[0] if len(deg) == 1 else list(deg)
        records.append({"d": d, "a": mono[0], "b": mono[1], "c": mono[2], "value": format_rat(val)})
    return records


def _gw_records(gw: GWTable) -> list[dict]:
    records = []
    for (beta, key), val in sorted(gw.entries.items()):
        d = beta[0] if len(beta) == 1 else list(beta)
        ins = " ".join(
            f"T{i}^{key.count(i)}" if key.count(i) > 1 else f"T{i}" for i in sorted(set(key))
        )
        records.append({"d": d, "insertions": ins or "-", "value": format_rat(val)})
    return records


def _genus1_seed_table(geom, args, box):
    """The genus-1 seeds of --seeds or of the packaged file; None, after one
    line to stderr, if a class of the box has no seed."""
    name = default_genus1_seed_name(geom)
    if not args.seeds and name is None:
        raise FileNotFoundError(f"genus-1 seeds for {geom.name} (pass --seeds <path>)")
    seeds = load_genus1_seeds(read_seed_file(args.seeds) if args.seeds else packaged_seed_text(name), geom)
    for beta in (b for t in range(1, sum(box) + 1) for b in geom.curve_classes(t, box)):
        if beta not in seeds:
            what = f"degree {beta[0]}" if len(beta) == 1 else f"bidegree {beta}"
            sys.stderr.write(f"missing seed file entry: genus-1 {what}\n")
            return None
    return seeds


def _class_shape(geom: TargetGeometry) -> str:
    n = len(geom.divisors)
    return "a degree D" if n == 1 else "a bidegree D1,D2" if n == 2 else f"{n} degrees D1,...,D{n}"


def _degree_box(text: str, geom: TargetGeometry) -> tuple[int, ...]:
    """--dmax as one non-negative bound per divisor class, total at least 1."""
    try:
        box = tuple(int(x) for x in text.split(","))
    except ValueError:
        box = ()
    if len(box) != len(geom.divisors) or min(box) < 0 or sum(box) < 1:
        raise ValueError(
            f"{geom.name} needs {_class_shape(geom)} (non-negative, total >= 1), got --dmax {text!r}"
        )
    return box


def cmd_compute(args, out) -> int:
    if args.genus == 0 and args.seeds:
        raise ValueError("--seeds applies to genus 1 and 2 only (it holds genus-1 seeds)")
    if args.genus < 2 and args.virtual2:
        raise ValueError("--virtual2 applies to genus 2 only")
    geom = _geometry(args.target)
    name = builtin_name(geom)
    if name not in ("p2", "p1xp1"):
        sys.stderr.write("compute supports --target p2 or p1xp1 (their built-in rings only)\n")
        return EXIT_USAGE
    quadric = name == "p1xp1"
    if quadric and args.genus > 1:
        sys.stderr.write("p1xp1 supports genus 0 and 1 only\n")
        return EXIT_USAGE
    box = _degree_box(args.dmax, geom)
    dmax = sum(box)
    if args.genus == 2 and dmax < 4:
        sys.stderr.write(
            "out of enumerative scope: genus-2 output needs d >= 4 (the degree-2 and "
            "degree-3 degenerate-cover terms are never evaluated)\n"
        )
        return EXIT_MISSING_SEEDS
    # a class reads only the classes below it, so nothing outside the box is computed
    gw = wdvv_solve(geom, default_gw_seeds(geom), dmax, box)
    if args.genus > 0:
        seeds = _genus1_seed_table(geom, args, box)
        if seeds is None:
            return EXIT_MISSING_SEEDS
    if quadric:
        # genus 1 takes its genus-0 table from its own tangency potential
        table = quadric_genus0(gw, dmax, box) if args.genus == 0 else quadric_genus1(gw, seeds, dmax, box=box)
    else:
        g0 = table = charnum_genus0(gw, dmax)
        if args.genus > 0:
            table = charnum_genus1(g0, seeds, dmax)
    if args.genus == 2:
        if not args.virtual2:
            raise FileNotFoundError("genus-2 virtual numbers (pass --virtual2 <path>; records d;a,b,c;p/q)")
        virtual2 = load_virtual2(read_seed_file(args.virtual2), dmax)
        table = charnum_genus2(g0, table, virtual2, dmax)
    for key, num in sorted(table.nums.items()) if args.genus else ():
        if num < 0 or num % table.den:
            want = "a non-negative integer"
        elif quadric and 1 in key[0]:
            want = "0: every curve of a bidegree (1, d) or (d, 1) is rational"
        else:
            continue
        deg, (a, b, c) = key
        raise SeedConflict(
            f"the genus-{args.genus} number at d={','.join(map(str, deg))}, (a,b,c)=({a},{b},{c}) is "
            f"{format_rat(Fraction(num, table.den))}, not {want}"
        )
    _emit(_char_records(table), ["d", "a", "b", "c", "value"], args.format, out)
    return EXIT_OK


def _gw_seeds(geom: TargetGeometry, args) -> dict:
    """The genus-0 seeds of --seeds, or the packaged ones."""
    return parse_seed_records(read_seed_file(args.seeds), geom) if args.seeds else default_gw_seeds(geom)


def cmd_gw(args, out) -> int:
    geom = _geometry(args.target)
    dmax = sum(_degree_box(args.dmax, geom))
    gw = wdvv_solve(geom, _gw_seeds(geom, args), dmax)
    _emit(_gw_records(gw), ["d", "insertions", "value"], args.format, out)
    return EXIT_OK


SPEC_RE = re.compile(r"tau(\d+)\(T(\d+)\)(?:\^(\d+))?")
MAX_INSERTIONS = 64  # checked before the powers are expanded, so a huge ^k fails at once


def parse_descendant(text: str):
    """`tau0(T2)^4 tau1(T1)^1 @ g=0 d=2 target=p2` -> (spec pieces, options)."""
    if text.count("@") != 1:
        raise ValueError(
            f"a descendant spec needs exactly one '@', as in 'tau...(...) @ g=.. d=.. target=..', got {text!r}"
        )
    head, tail = text.split("@")
    powers = []
    for token in head.split():
        m = SPEC_RE.fullmatch(token)
        if m is None:
            raise ValueError(
                f"each insertion before '@' must be tau<m>(T<i>) or tau<m>(T<i>)^<k>, got {token!r}"
            )
        powers.append(((int(m.group(1)), int(m.group(2))), int(m.group(3) or 1)))
    count = sum(power for _, power in powers)
    if count > MAX_INSERTIONS:
        raise ValueError(f"the spec has {count} insertions, more than the cap of {MAX_INSERTIONS}")
    insertions = [ins for ins, power in powers for _ in range(power)]
    if not insertions:
        raise ValueError(f"no insertions parsed from {head!r}")
    opts = {}
    for kv in tail.split():
        key, eq, val = kv.partition("=")
        if not (key and eq):
            raise ValueError(f"expected key=value after '@', got {kv!r}")
        if key not in ("g", "d", "target"):
            raise ValueError(f"unknown key {key!r} after '@': the allowed keys are g, d and target")
        opts[key] = val
    if "d" not in opts:
        raise ValueError("missing the curve class: add d=<degree> after '@'")
    try:
        genus = int(opts.get("g", "0"))
    except ValueError:
        raise ValueError(f"g= must be the genus as an integer, as in g=1, got {opts['g']!r}") from None
    try:
        degrees = tuple(int(x) for x in opts["d"].split(","))
    except ValueError:
        raise ValueError(
            f"d= must be the curve class as comma-separated integers, as in d=3 or d=2,1, got {opts['d']!r}"
        ) from None
    return genus, degrees, tuple(insertions), opts.get("target", "p2")


def cmd_descendant(args, out) -> int:
    genus, degrees, insertions, target = parse_descendant(args.spec)
    geom = _geometry(args.target or target)
    if len(degrees) != len(geom.divisors) or min(degrees) < 0:
        d = ",".join(map(str, degrees))
        raise ValueError(f"{geom.name} needs {_class_shape(geom)} (non-negative), got d={d}")
    if any(c >= geom.rank for _, c in insertions):
        raise ValueError(f"{geom.name} has the basis classes T0..T{geom.rank - 1} only")
    dmax = sum(degrees)
    if genus == 0:
        if args.seeds and not args.no_cache:
            raise ValueError("--seeds needs --no-cache at genus 0: the cache file is keyed by the geometry alone")
        cache = None
        if not args.no_cache:
            cache_path = Path(args.cache) if args.cache else default_cache_dir() / f"{geom.name}.cache"
            cache = CacheFile(cache_path, geom.fingerprint())
            try:
                cache.load()
            except OSError as e:
                raise ValueError(f"cannot read the cache file {cache_path}: {e.strerror}") from None
        # the cache's records are the engine's memo, so the file is rewritten only when it grew
        solver = _SolveOnLookup(geom, _gw_seeds(geom, args), dmax)
        engine = DescendantEngine(geom, solver, None if cache is None else cache.records)
        known = len(engine.memo)
        value = engine.value(DescendantSpec(0, degrees, insertions))
        if cache is not None and len(engine.memo) > known:
            try:
                cache.save()
            except OSError as e:
                raise ValueError(f"cannot write the cache file {cache_path}: {e.strerror}") from None
    elif genus == 1:
        if any(m > 1 for m, _ in insertions):
            sys.stderr.write(
                "genus-1 invariants are available for psi powers <= 1 only "
                "(no higher-power genus-1 recursion is implemented)\n"
            )
            return EXIT_USAGE
        if builtin_name(geom) is None:
            # the genus-0 solve below reads the built-in seeds, and --seeds holds genus-1 ones
            sys.stderr.write(
                f"out of scope: no option supplies the genus-0 seeds of config target {geom.name!r} at genus 1\n"
            )
            return EXIT_MISSING_SEEDS
        seeds = _genus1_seed_table(geom, args, degrees)
        if seeds is None:
            return EXIT_MISSING_SEEDS
        # a class reads only the classes below it, so only those of the box are solved
        gw = wdvv_solve(geom, default_gw_seeds(geom), dmax, degrees)
        ts = TangencySpace(geom)
        g0 = genus0_tangency_potential(ts, gw, dmax, degrees)
        g1 = genus1_tangency_potential(ts, g0, seeds, dmax, box=degrees)
        value = _extract_first_descendant(ts, g1, degrees, insertions)
    else:
        sys.stderr.write("descendant supports genus 0 and 1\n")
        return EXIT_USAGE
    out.write(format_rat(value) + "\n")
    return EXIT_OK


class _SolveOnLookup:
    """The genus-0 table of a descendant request, solved from `seeds` on the
    engine's first lookup: a value the cache already holds needs no WDVV solve."""

    def __init__(self, geom: TargetGeometry, seeds: dict, dmax: int):
        self.geom = geom
        self.seeds = seeds
        self.dmax = dmax
        self.table: GWTable | None = None

    def lookup(self, beta, insertions) -> Fraction:
        if self.table is None:
            self.table = wdvv_solve(self.geom, self.seeds, self.dmax)
        return self.table.lookup(beta, insertions)


def _extract_first_descendant(ts: TangencySpace, g1: SeriesTable, beta, insertions):
    red = reduce_special(ts.geom, DescendantSpec(1, beta, insertions))
    if red[0] == "value":
        return red[1]
    _, factor, spec = red
    if not dimension_valid(ts.geom, spec):
        return Fraction(0)
    return factor * g1.coeff(spec.beta, ts.key(spec.insertions))


def cmd_hurwitz(args, out) -> int:
    try:
        dmax = int(args.dmax)
    except ValueError:
        dmax = 0
    if dmax < 1:
        raise ValueError(f"hurwitz needs a degree D >= 1, got --dmax {args.dmax!r}")
    table = hurwitz_table(args.gmax, dmax)
    records = [
        {"g": g, "d": d, "b": b, "value": format_rat(v)} for (g, d, b), v in sorted(table.items())
    ]
    _emit(records, ["g", "d", "b", "value"], args.format, out)
    return EXIT_OK


def cmd_metric(args, out) -> int:
    geom = _geometry(args.target)
    matrix = inverse_metric(geom) if args.which == "upper" else deformed_metric(geom)[0]
    out.write(matrix.to_text() + "\n")
    return EXIT_OK


def cmd_verify(args, out) -> int:
    failures = run_verify_suite(args.suite, out)
    if failures:
        out.write(f"FAIL {args.suite}: {failures} mismatch(es)\n")
        return EXIT_MISMATCH
    out.write(f"ok {args.suite}\n")
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    keeps no state in it."""
    ap = argparse.ArgumentParser(prog="charnum", description=__doc__)
    ap.add_argument("--version", action="version", version=f"charnum {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, fmt=True, seeds=True):
        if fmt:
            p.add_argument("--format", choices=("json", "csv", "md"), default="json")
        if seeds:
            p.add_argument("--seeds", help="seed-file path overriding packaged data")

    p = sub.add_parser("compute", help="characteristic numbers")
    p.add_argument("--target", required=True)
    p.add_argument("--genus", type=int, choices=(0, 1, 2), required=True)
    p.add_argument("--dmax", required=True, help="max degree, or D1,D2 for p1xp1")
    p.add_argument("--virtual2", help="genus-2 virtual seed file (records d;a,b,c;p/q)")
    common(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("gw", help="genus-0 Gromov-Witten invariants")
    p.add_argument("--target", required=True)
    p.add_argument("--dmax", required=True)
    common(p)
    p.set_defaults(func=cmd_gw)

    p = sub.add_parser("descendant", help="one tangency-descendant invariant")
    p.add_argument("spec", help="e.g. 'tau0(T2)^4 tau1(T1)^1 @ g=0 d=2 target=p2'")
    p.add_argument("--target", help="overrides the target named in the invariant string")
    p.add_argument("--cache", help="cache file path")
    p.add_argument("--no-cache", action="store_true")
    common(p, fmt=False)
    p.set_defaults(func=cmd_descendant)

    p = sub.add_parser("hurwitz", help="simple Hurwitz numbers")
    p.add_argument("--dmax", required=True)
    p.add_argument("--gmax", type=int, default=1, choices=(0, 1))
    common(p, seeds=False)
    p.set_defaults(func=cmd_hurwitz)

    p = sub.add_parser("metric", help="the deformed pairing of a target")
    p.add_argument("--target", required=True)
    p.add_argument("--which", choices=("upper", "lower"), default="upper")
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("verify", help="independent consistency suites")
    p.add_argument("--suite", required=True, choices=("hurwitz", "p2-genus0", "p2-genus1", "metric"))
    p.set_defaults(func=cmd_verify)
    return ap


def run(argv=None, out=None) -> int:
    out = out or sys.stdout
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args, out)
    except InsufficientSeeds as e:
        sys.stderr.write(f"insufficient seed data: {e}\n")
        return EXIT_MISSING_SEEDS
    except SeedConflict as e:
        sys.stderr.write(f"seed data fails verification: {e}\n")
        return EXIT_MISMATCH
    except (GeometryError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE
    except FileNotFoundError as e:
        sys.stderr.write(f"missing seed file: {e}\n")
        return EXIT_MISSING_SEEDS


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is still buffered nowhere, so the exit flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CLOSED_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
