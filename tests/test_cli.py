from __future__ import annotations

import hashlib
import io
import json
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from charnum.geometry import builtin_geometry, in_box
from charnum.planecurves import PLANE
from charnum.seeds import packaged_seed_text
from charnum.series import SeriesTable

from charnum import cli
from charnum.cli import MAX_INSERTIONS, parse_descendant, run


def capture(argv, env=None):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def test_gw_csv_rows():
    code, text = capture(["gw", "--target", "p2", "--dmax", "4", "--format", "csv"])
    assert code == 0
    rows = text.strip().splitlines()
    assert rows[0] == "d,insertions,value"
    assert len(rows) == 5
    assert rows[-1] == "4,T2^11,620"


def test_metric_prints_exact_matrix():
    code, text = capture(["metric", "--target", "p2"])
    assert code == 0
    assert "exp(2*y0)" in text
    assert "2*y1^2 + 2*y2" in text


def test_compute_json_schema():
    code, text = capture(["compute", "--target", "p2", "--genus", "0", "--dmax", "2"])
    assert code == 0
    records = json.loads(text)
    assert {"d": 1, "a": 2, "b": 0, "c": 0, "value": "1"} in records
    assert all(set(r) == {"d", "a", "b", "c", "value"} for r in records)


def test_compute_quadric_bidegree_box():
    code, text = capture(["compute", "--target", "p1xp1", "--genus", "0", "--dmax", "2,1"])
    assert code == 0
    records = json.loads(text)
    assert all(r["d"][0] <= 2 and r["d"][1] <= 1 for r in records)
    assert any(r["d"] == [1, 1] and r["a"] == 3 and r["value"] == "1" for r in records)


def test_genus2_scope_gate_exit3():
    code, _ = capture(["compute", "--target", "p2", "--genus", "2", "--dmax", "3"])
    assert code == 3


def test_genus2_requires_virtual_seeds():
    code, _ = capture(["compute", "--target", "p2", "--genus", "2", "--dmax", "4"])
    assert code == 3


def test_genus2_with_virtual_file(tmp_path, virtual2_ones):
    path = tmp_path / "virt.seeds"
    path.write_text(virtual2_ones)
    code, text = capture(
        ["compute", "--target", "p2", "--genus", "2", "--dmax", "4", "--virtual2", str(path)]
    )
    assert code == 0
    records = json.loads(text)
    assert len(records) == len(list(PLANE.strata(2, 4))) == 56
    assert {r["value"] for r in records} == {"1"}


def test_fractional_genus2_number_stops_compute(tmp_path, capsys):
    """An all-zero virtual file makes most genus-2 numbers fractions: exit 1
    with one line naming the genus and the first such record, and no table."""
    path = tmp_path / "virt.seeds"
    path.write_text("".join(f"4;{a},{b},{c};0\n" for a, b, c in PLANE.strata(2, 4)))
    capsys.readouterr()
    argv = ["compute", "--target", "p2", "--genus", "2", "--dmax", "4", "--virtual2", str(path)]
    assert capture(argv) == (1, "")
    assert capsys.readouterr().err == (
        "seed data fails verification: the genus-2 number at d=4, (a,b,c)=(0,1,6) is 185/2, "
        "not a non-negative integer\n"
    )


def test_genus2_incomplete_virtual_file_names_the_first_missing_record(tmp_path, capsys):
    path = tmp_path / "virt.seeds"
    path.write_text("4;13,0,0;0\n")
    capsys.readouterr()
    argv = ["compute", "--target", "p2", "--genus", "2", "--dmax", "4", "--virtual2", str(path)]
    assert capture(argv) == (3, "")
    assert capsys.readouterr().err == (
        "insufficient seed data: missing genus-2 virtual record 4;12,1,0 (zeros must be written out)\n"
    )


def test_genus1_seed_bound_exceeded_exit3():
    code, _ = capture(["compute", "--target", "p2", "--genus", "1", "--dmax", "6"])
    assert code == 3


def test_missing_genus1_seed_names_a_class_in_the_box(capsys):
    # the packaged quadric seeds stop at total degree 5; (0, 6) lies outside 4,2
    assert capture(["compute", "--target", "p1xp1", "--genus", "1", "--dmax", "4,2"]) == (3, "")
    assert capsys.readouterr().err == "missing seed file entry: genus-1 bidegree (4, 2)\n"


def test_seed_file_needs_only_the_classes_in_the_box(tmp_path):
    records = packaged_seed_text("p1xp1-genus1").splitlines()

    def bidegree(record):  # d1,d2;insertion counts;value
        return tuple(int(d) for d in record.split(";")[0].split(","))

    kept = [ln for ln in records if ln.startswith("#") or in_box(bidegree(ln), (3, 2))]
    assert len(kept) < len(records)
    path = tmp_path / "box.seeds"
    path.write_text("\n".join(kept) + "\n")
    argv = ["compute", "--target", "p1xp1", "--genus", "1", "--dmax", "3,2"]
    code, text = capture([*argv, "--seeds", str(path)])
    assert code == 0 and json.loads(text)
    assert (code, text) == capture(argv)


@pytest.mark.parametrize(
    "spec, line",
    [
        ("tau0(T2)^18 @ g=1 d=6", "degree 6"),
        ("tau0(T2)^17 tau1(T1)^1 @ g=1 d=6", "degree 6"),
        ("tau0(T3)^12 @ g=1 d=3,3 target=p1xp1", "bidegree (3, 3)"),
    ],
)
def test_genus1_descendant_without_its_seed_exits_3(spec, line, capsys):
    # the packaged seeds stop at degree 5 on the plane and total degree 5 on the quadric
    assert capture(["descendant", spec, "--no-cache"]) == (3, "")
    assert capsys.readouterr().err == f"missing seed file entry: genus-1 {line}\n"


def test_genus1_descendant_and_compute_agree_on_a_short_seed_file(tmp_path, capsys):
    records = packaged_seed_text("p2-genus1").splitlines()
    path = tmp_path / "d3.seeds"
    path.write_text("\n".join(ln for ln in records if ln.startswith(("#", "1;", "2;", "3;"))) + "\n")
    for argv in (["descendant", "tau0(T2)^12 @ g=1 d=4", "--no-cache"],
                 ["compute", "--target", "p2", "--genus", "1", "--dmax", "4"]):
        assert capture([*argv, "--seeds", str(path)]) == (3, "")
        assert capsys.readouterr().err == "missing seed file entry: genus-1 degree 4\n"


def test_genus0_descendant_rejects_a_seed_file(tmp_path, capsys):
    path = tmp_path / "one.seeds"
    path.write_text("1;0,0,2;5\n")
    assert capture(["gw", "--target", "p2", "--dmax", "2", "--seeds", str(path), "--format", "csv"])[1].endswith(
        "2,T2^5,25\n"
    )
    # the cache file is keyed by the geometry alone, so a cached request refuses seeds
    cache = tmp_path / "p2.cache"
    for seeds in (str(path), str(tmp_path / "absent.seeds")):
        assert capture(["descendant", "tau0(T2)^5 @ d=2", "--cache", str(cache), "--seeds", seeds]) == (2, "")
        assert capsys.readouterr().err == (
            "error: --seeds needs --no-cache at genus 0: the cache file is keyed by the geometry alone\n"
        )
    assert not cache.exists()
    assert capture(["descendant", "tau0(T2)^5 @ d=2", "--no-cache", "--seeds", str(path)]) == (0, "25\n")
    absent = ["descendant", "tau0(T2)^5 @ d=2", "--no-cache", "--seeds", str(tmp_path / "absent.seeds")]
    assert capture(absent) == (3, "")


def test_genus0_descendant_on_a_config_target_reads_its_seed_file(tmp_path):
    """A ring that is not built in has no packaged seeds; with the plane's
    one seed in --seeds it prints what the request prints on p2."""
    geom = tmp_path / "myplane.geom"
    geom.write_text(builtin_geometry("p2").to_text().replace("name p2", "name myplane"))
    seeds = tmp_path / "one.seeds"
    seeds.write_text("1;0,0,2;1\n")
    for spec in ("tau0(T2)^2 @ d=1", CACHED_SPEC):
        on_p2 = capture(["descendant", spec, "--no-cache"])
        assert on_p2[0] == 0
        argv = ["descendant", spec, "--target", str(geom), "--no-cache", "--seeds", str(seeds)]
        assert capture(argv) == on_p2


@pytest.mark.parametrize("with_seeds", [False, True], ids=["no-seeds", "seeds"])
def test_genus1_descendant_on_a_config_target_is_out_of_scope(tmp_path, capsys, with_seeds):
    """Its genus-0 seeds come from no option (--seeds holds the genus-1 ones),
    so the request is refused in one line before any seed file is read."""
    geom = tmp_path / "myplane.geom"
    geom.write_text(builtin_geometry("p2").to_text().replace("name p2", "name myplane"))
    seeds = tmp_path / "genus1.seeds"
    seeds.write_text(packaged_seed_text("p2-genus1"))
    argv = ["descendant", "tau0(T2)^8 tau1(T1) @ g=1 d=3", "--target", str(geom)]
    capsys.readouterr()
    assert capture([*argv, *(["--seeds", str(seeds)] if with_seeds else [])]) == (3, "")
    assert capsys.readouterr().err == (
        "out of scope: no option supplies the genus-0 seeds of config target 'myplane' at genus 1\n"
    )
    assert capture(["descendant", "tau0(T2)^8 tau1(T1) @ g=1 d=3"]) == (0, "0\n")


def test_usage_error_exit2(capsys):
    code, _ = capture(["compute", "--target", "p2", "--genus", "5", "--dmax", "2"])
    assert code == 2
    code, _ = capture(["compute", "--target", "gr24", "--genus", "0", "--dmax", "1"])
    assert code == 2
    capsys.readouterr()
    for argv in (
        ["compute", "--target", "p2", "--genus", "0", "--dmax", "0"],
        ["compute", "--target", "p2", "--genus", "0", "--dmax", "-1"],
        ["compute", "--target", "p2", "--genus", "0", "--dmax", "2,1"],
        ["compute", "--target", "p1xp1", "--genus", "0", "--dmax", "3"],
        ["compute", "--target", "p1xp1", "--genus", "0", "--dmax", "0,0"],
        ["compute", "--target", "p1xp1", "--genus", "0", "--dmax=-1,2"],
        ["gw", "--target", "p2", "--dmax", "0"],
        ["gw", "--target", "p2", "--dmax", "x"],
        ["gw", "--target", "p1xp1", "--dmax", "3"],
        ["hurwitz", "--dmax", "0"],
        ["hurwitz", "--dmax", "-2"],
    ):
        code, text = capture(argv)
        err = capsys.readouterr().err
        assert (code, text) == (2, ""), argv
        assert err.count("\n") == 1 and "needs a" in err, (argv, err)
    capture(["compute", "--target", "p1xp1", "--genus", "0", "--dmax", "3"])
    assert "p1xp1 needs a bidegree D1,D2" in capsys.readouterr().err


def test_descendant_takes_no_format(capsys):
    """A descendant prints one bare value, so it refuses --format as a usage error."""
    capsys.readouterr()
    assert capture(["descendant", "tau0(T2)^2 @ d=1", "--no-cache", "--format", "csv"]) == (2, "")
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err


def test_descendant_spec_parsing(capsys):
    genus, degrees, insertions, target = parse_descendant(
        "tau0(T2)^4 tau1(T1)^1 @ g=0 d=2 target=p2"
    )
    assert (genus, degrees, target) == (0, (2,), "p2")
    assert sorted(insertions) == [(0, 2)] * 4 + [(1, 1)]
    with pytest.raises(ValueError):
        parse_descendant("nonsense @ g=0 d=1")
    with pytest.raises(ValueError):
        parse_descendant("tau0(T2)")
    with pytest.raises(ValueError, match="d=<degree>"):
        parse_descendant("tau1(T1) @ g=0")
    with pytest.raises(ValueError, match="key=value"):
        parse_descendant("tau0(T2)^2 @ g=0 d=1 p2")
    with pytest.raises(ValueError, match="'foo'"):
        parse_descendant("tau0(T2)^2 foo @ d=1")
    with pytest.raises(ValueError, match="exactly one '@'"):
        parse_descendant("tau0(T2) @ d=1 @ g=0")
    with pytest.raises(ValueError, match="'foo'.*g, d and target"):
        parse_descendant("tau0(T2)^2 @ d=1 foo=bar")
    capsys.readouterr()
    for spec, named in (
        ("tau0(T2)^2 foo @ d=1", "'foo'"),
        ("tau0(T2) @ d=1 @ g=0", "exactly one '@'"),
        ("tau0(T2)^2 @ d=1 foo=bar", "g, d and target"),
    ):
        assert capture(["descendant", spec, "--no-cache"]) == (2, ""), spec
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and named in err, (spec, err)
    for spec in (
        "tau1(T1) @ g=0",
        "tau0(T2)^2 @ g=0 d=1 p2",
        "tau0(T2)^2 @ d=-1",  # a negative degree
        "tau0(T2)^2 @ d=1,1 target=p2",  # two degrees on a one-divisor target
        "tau0(T3)^3 @ d=2 target=p1xp1",  # one degree on the quadric
        "tau0(T3)^2 @ d=1",  # p2 has T0..T2 only
    ):
        assert capture(["descendant", spec, "--no-cache"]) == (2, ""), spec
    assert capture(["descendant", "tau1(T0) @ g=1 d=0", "--no-cache"]) == (0, "1/8\n")


@pytest.mark.parametrize(
    "spec, named",
    [
        ("tau0(T2)^2 @ g=x d=1", "g= must be the genus as an integer, as in g=1, got 'x'"),
        ("tau0(T2)^2 @ g=1 d=", "d= must be the curve class as comma-separated integers, as in d=3 or d=2,1, got ''"),
        ("tau0(T3)^3 @ d=1,x target=p1xp1", "d= must be the curve class"),
        ("tau0(T2)^2 @ g= d=1", "got ''"),
    ],
)
def test_descendant_malformed_numbers_name_their_key(capsys, spec, named):
    with pytest.raises(ValueError, match="must be"):
        parse_descendant(spec)
    capsys.readouterr()
    assert capture(["descendant", spec, "--no-cache"]) == (2, "")
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err and "invalid literal" not in err, err


def test_descendant_insertion_cap_is_checked_before_expanding(capsys):
    assert len(parse_descendant(f"tau0(T2)^{MAX_INSERTIONS} @ d=1")[2]) == MAX_INSERTIONS
    with pytest.raises(ValueError, match=f"{MAX_INSERTIONS + 1} insertions"):
        parse_descendant(f"tau0(T2)^{MAX_INSERTIONS} tau1(T1) @ d=1")
    capsys.readouterr()
    start = time.perf_counter()
    assert capture(["descendant", "tau0(T2)^99999999 @ d=1", "--no-cache"]) == (2, "")
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "99999999" in err and str(MAX_INSERTIONS) in err, err


def test_descendant_value_and_cache(tmp_path):
    argv = [
        "descendant",
        "tau0(T2)^4 tau1(T1)^1 @ g=0 d=2 target=p2",
        "--cache",
        str(tmp_path / "c.cache"),
    ]
    code, text = capture(argv)
    assert (code, text.strip()) == (0, "1")
    code, text = capture(argv)  # warm
    assert (code, text.strip()) == (0, "1")


def test_descendant_genus1_first_descendant():
    code, text = capture(
        ["descendant", "tau0(T2)^9 @ g=1 d=3 target=p2", "--no-cache"]
    )
    assert (code, text.strip()) == (0, "1")


def test_descendant_genus1_rejects_high_psi():
    code, _ = capture(["descendant", "tau2(T2)^1 tau0(T2)^5 @ g=1 d=2", "--no-cache"])
    assert code == 2


def test_custom_geometry_config(tmp_path):
    from charnum.geometry import builtin_geometry

    path = tmp_path / "plane.geom"
    path.write_text(builtin_geometry("p2").to_text().replace("name p2", "name myplane"))
    code, text = capture(["metric", "--target", str(path)])
    assert code == 0 and "2*y1^2 + 2*y2" in text


P2_TEXT = builtin_geometry("p2").to_text()
# P^2 with the point class doubled: int T2 = 2 and T1 T1 = T2 / 2; it loads
DOUBLED_POINT = P2_TEXT.replace("0 0 1\n0 1 0\n1 0 0", "0 0 2\n0 1 0\n2 0 0").replace(
    "cup 1 1 = 0 0 1\n", "cup 1 1 = 0 0 1/2\n"
)


@pytest.mark.parametrize(
    "text, argv",
    [
        (DOUBLED_POINT, ["compute", "--genus", "0", "--dmax", "3", "--format", "csv"]),
        (P2_TEXT.replace("name p2", "name p3"), ["gw", "--dmax", "2"]),
        (P2_TEXT.replace("name p2", "name p7"), ["gw", "--dmax", "2"]),
    ],
    ids=["p2-doubled-point", "p3-holding-p2", "p7-holding-p2"],
)
def test_a_builtin_name_on_another_ring_is_a_custom_target(tmp_path, capsys, text, argv):
    """A config counts as a built-in only if it holds that built-in's ring;
    otherwise it has no default seeds and no characteristic-number solver."""
    path = tmp_path / "target.geom"
    path.write_text(text)
    capsys.readouterr()
    assert capture([argv[0], "--target", str(path), *argv[1:]]) == (2, "")
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err


def test_a_config_holding_a_builtin_ring_is_that_builtin(tmp_path):
    path = tmp_path / "p2.geom"
    path.write_text(P2_TEXT)
    argv = ["compute", "--genus", "1", "--dmax", "3", "--format", "csv"]
    assert capture([*argv, "--target", str(path)]) == capture([*argv, "--target", "p2"])


def test_gw_on_a_config_target_reads_the_seed_file(tmp_path):
    """A custom target has no default seeds; --seeds supplies them."""
    (tmp_path / "myplane.geom").write_text(P2_TEXT.replace("name p2", "name myplane"))
    (tmp_path / "line.seeds").write_text("1;0,0,2;1\n")
    argv = ["gw", "--dmax", "2", "--seeds", str(tmp_path / "line.seeds")]
    code, text = capture([*argv, "--target", str(tmp_path / "myplane.geom")])
    assert (code, text) == capture([*argv, "--target", "p2"])
    assert code == 0 and '"value":"1"' in text


@pytest.mark.parametrize(
    "genus, option, line",
    [
        ("0", "--seeds", "error: --seeds applies to genus 1 and 2 only (it holds genus-1 seeds)\n"),
        ("0", "--virtual2", "error: --virtual2 applies to genus 2 only\n"),
        ("1", "--virtual2", "error: --virtual2 applies to genus 2 only\n"),
    ],
)
def test_compute_refuses_a_file_its_genus_does_not_read(tmp_path, capsys, genus, option, line):
    path = tmp_path / "data"
    path.write_text("1;0,0,2;1\n")
    capsys.readouterr()
    assert capture(["compute", "--target", "p2", "--genus", genus, "--dmax", "3", option, str(path)]) == (2, "")
    assert capsys.readouterr().err == line


def test_descendant_on_quadric():
    code, text = capture(
        ["descendant", "tau0(T3)^3 @ g=0 d=1,1 target=p1xp1", "--no-cache"]
    )
    assert (code, text.strip()) == (0, "1")


def test_gr24_insufficiency_exit3():
    code, _ = capture(["gw", "--target", "gr24", "--dmax", "2"])
    assert code == 3


REFS = Path(__file__).resolve().parent.parent / "perfbench" / "refs.json"


def replay_benchmark_requests(
    prefix: str, count: int, within: str = "", extra: tuple[str, ...] = (), cache_dir: Path | None = None
) -> None:
    """Replay the benchmark's reference requests starting with `prefix` and
    holding `within`, with the arguments `extra` appended: same exit code and
    stdout digest.  With `cache_dir`, a request without --no-cache reads and
    writes a fresh, empty cache file there, as the references were made."""
    refs = {
        key: ref for key, ref in json.loads(REFS.read_text()).items() if key.startswith(prefix) and within in key
    }
    assert len(refs) == count
    for n, (key, ref) in enumerate(refs.items()):
        argv = shlex.split(key) + list(extra)
        if cache_dir is not None and "--no-cache" not in argv:
            argv += ["--cache", str(cache_dir / f"{n}.cache")]
        code, text = capture(argv)
        assert (code, hashlib.sha256(text.encode()).hexdigest()) == (ref["exit"], ref["sha256"]), key


def test_gw_requests_match_the_benchmark_digests():
    replay_benchmark_requests("gw ", 7)


@pytest.mark.parametrize(
    "prefix, count",
    [("compute --target p2 --genus 1 ", 9), ("compute --target p1xp1 --genus 1 ", 3), ("verify ", 4)],
)
def test_genus1_and_verify_requests_match_the_benchmark_digests(prefix, count):
    replay_benchmark_requests(prefix, count)


@pytest.mark.parametrize("prefix, count", [("compute --target p2 --genus 0 ", 12), ("compute --target p1xp1 --genus 0 ", 3)])
def test_genus0_requests_match_the_benchmark_digests(prefix, count):
    replay_benchmark_requests(prefix, count)


def test_genus1_descendant_requests_match_the_benchmark_digests():
    # each runs both tangency potentials; genus 1 reads no cache, and none is touched
    replay_benchmark_requests("descendant ", 3, within=" @ g=1 ", extra=("--no-cache",))


def test_genus0_descendant_requests_match_the_benchmark_digests(tmp_path):
    replay_benchmark_requests("descendant ", 34, within=" @ g=0 ", cache_dir=tmp_path)
    # each cached request wrote its own cache file
    assert len(list(tmp_path.glob("*.cache"))) == 17


def test_verify_suites_pass():
    for suite in ("p2-genus0", "metric"):
        code, text = capture(["verify", "--suite", suite])
        assert code == 0, text
        assert text.strip().endswith(f"ok {suite}")


def test_determinism_two_cold_runs():
    cmd = [
        sys.executable,
        "-m",
        "charnum.cli",
        "compute",
        "--target",
        "p2",
        "--genus",
        "0",
        "--dmax",
        "3",
        "--format",
        "json",
    ]
    a = subprocess.run(cmd, capture_output=True, check=True).stdout
    b = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert a == b and a


CACHED_SPEC = "tau0(T2)^6 tau1(T1)^2 @ g=0 d=3"


@pytest.mark.parametrize(
    "record, old, new",
    [("g0|3|", " 40", " 1/0"), ("g0|2|", " ", ""), ("g0|3|", " 40", " 999")],
    ids=["zero-denominator", "no-space", "poisoned-value"],
)
def test_edited_cache_record_is_ignored_and_rewritten(tmp_path, capsys, record, old, new):
    path = tmp_path / "p2.cache"
    argv = ["descendant", CACHED_SPEC, "--cache", str(path)]
    assert capture(argv) == (0, "40\n")
    good = path.read_text()
    edited = "".join(
        ln.replace(old, new, 1) if ln.startswith(record) else ln for ln in good.splitlines(keepends=True)
    )
    assert edited != good
    path.write_text(edited)
    capsys.readouterr()
    assert capture(argv) == (0, "40\n")
    assert "Traceback" not in capsys.readouterr().err
    assert path.read_text() == good


def test_warm_repeat_leaves_the_cache_file_alone(tmp_path):
    path = tmp_path / "p2.cache"
    argv = ["descendant", CACHED_SPEC, "--cache", str(path)]
    assert capture(argv) == (0, "40\n")
    before = path.stat()
    assert capture(argv) == (0, "40\n")
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


def test_warm_descendant_hit_skips_wdvv(tmp_path, monkeypatch):
    solves = []
    solve = cli.wdvv_solve

    def counting(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(cli, "wdvv_solve", counting)
    argv = ["descendant", CACHED_SPEC, "--cache", str(tmp_path / "p2.cache")]
    cold = capture(argv)
    assert (cold, len(solves)) == ((0, "40\n"), 1)
    solves.clear()
    assert (capture(argv), len(solves)) == (cold, 0)


def test_gr24_degree2_descendant_still_refused(tmp_path, capsys):
    # the table is solved on the first lookup, so the refusal comes from inside the recursion
    argv = ["descendant", "tau1(T4) tau0(T5)^2 @ d=2 target=gr24", "--cache", str(tmp_path / "gr24.cache")]
    for _ in range(2):
        assert capture(argv) == (3, "")
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("insufficient seed data"), err
    assert not (tmp_path / "gr24.cache").exists()


def test_wrong_genus0_table_stops_genus1_compute(monkeypatch, capsys):
    genus0 = cli.charnum_genus0

    def wrong(gw, dmax):
        table = genus0(gw, dmax)
        entries = dict(table.entries)
        entries[(3,), (8, 0, 0)] += 1
        return SeriesTable(table.space, table.dmax, entries)

    monkeypatch.setattr(cli, "charnum_genus0", wrong)
    assert capture(["compute", "--target", "p2", "--genus", "1", "--dmax", "4"]) == (1, "")
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("seed data fails verification"), err


@pytest.mark.parametrize(
    "argv, name, record, line",
    [
        (["--target", "p2", "--dmax", "3"], "p2-genus1", "1;0,0,3;1/2", "d=1, (a,b,c)=(0,3,0) is 1/2"),
        (["--target", "p1xp1", "--dmax", "2,2"], "p1xp1-genus1", "2,2;0,0,0,8;1/2", "d=2,2, (a,b,c)=(8,0,0) is 1/2"),
    ],
    ids=["p2", "p1xp1"],
)
def test_fractional_genus1_number_stops_compute(tmp_path, capsys, argv, name, record, line):
    """A genus-1 seed that makes some characteristic number non-integral is
    wrong: exit 1 with one line naming the first such record, and no table."""
    key = record.split(";")[0] + ";"
    records = [ln for ln in packaged_seed_text(name).splitlines() if not ln.startswith(key)]
    path = tmp_path / "frac.seeds"
    path.write_text("\n".join([*records, record]) + "\n")
    assert capture(["compute", "--genus", "1", *argv, "--seeds", str(path)]) == (1, "")
    assert capsys.readouterr().err == (
        f"seed data fails verification: the genus-1 number at {line}, not a non-negative integer\n"
    )


def test_genus1_number_on_a_rational_bidegree_stops_compute(tmp_path, capsys):
    """A curve of bidegree (1, d) is rational, so a quadric genus-1 number
    there means a wrong seed: exit 1 with one line naming the first record."""
    text = packaged_seed_text("p1xp1-genus1").replace("1,2;0,0,0,6;0", "1,2;0,0,0,6;1")
    path = tmp_path / "rational.seeds"
    path.write_text(text)
    argv = ["compute", "--target", "p1xp1", "--genus", "1", "--dmax", "2,2"]
    assert capture([*argv, "--seeds", str(path)]) == (1, "")
    assert capsys.readouterr().err == (
        "seed data fails verification: the genus-1 number at d=1,2, (a,b,c)=(0,6,0) is 64, "
        "not 0: every curve of a bidegree (1, d) or (d, 1) is rational\n"
    )


def test_genus1_descendant_reads_the_seeds_before_solving(monkeypatch, capsys):
    solves = []
    monkeypatch.setattr(cli, "wdvv_solve", lambda *args: solves.append(args))
    assert capture(["descendant", "tau0(T4)^5 @ g=1 d=3 target=p5", "--no-cache"]) == (3, "")
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("missing seed file"), err
    assert solves == []


def test_genus1_descendant_solves_only_the_box(monkeypatch):
    potentials = []

    def spy(potential):
        def run(*args, **kwargs):
            potentials.append(potential(*args, **kwargs))
            return potentials[-1]
        return run

    for name in ("genus0_tangency_potential", "genus1_tangency_potential"):
        monkeypatch.setattr(cli, name, spy(getattr(cli, name)))
    box = (3, 1)
    argv = ["descendant", "tau0(T3)^2 tau1(T1)^4 tau1(T3) @ g=1 d=3,1 target=p1xp1", "--no-cache"]
    assert capture(argv) == (0, "-31\n")
    assert len(potentials) == 2
    assert all(pot.entries for pot in potentials)
    assert sum(not in_box(deg, box) for pot in potentials for deg, _ in pot.entries) == 0


@pytest.mark.parametrize(
    "argv, code",
    [
        (["gw", "--target", "{dir}", "--dmax", "1"], 2),
        (["descendant", "tau0(T2)^2 @ d=1 target={dir}", "--no-cache"], 2),
        (["descendant", "tau0(T2)^2 @ d=1", "--cache", "{dir}"], 2),
        (["gw", "--target", "p2", "--dmax", "1", "--seeds", "{dir}"], 3),
        (["compute", "--target", "p2", "--genus", "2", "--dmax", "4", "--virtual2", "{dir}"], 3),
    ],
    ids=["target", "spec-target", "cache", "seeds", "virtual2"],
)
def test_directory_as_path_names_it(tmp_path, capsys, argv, code):
    assert capture([a.format(dir=tmp_path) for a in argv]) == (code, "")
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(tmp_path) in err, err


# -- fuzzing the four parsers through the command line ---------------------------

JUNK = ["", "@", "=", "tau", "(", ")", "^", "x", "-1", ",", ";", "/", "1/0", "#"]


def with_junk(tokens, junk, at):
    """`tokens` with one junk token inserted, or unchanged when `junk` is None."""
    if junk is not None:
        tokens = tokens[: at % (len(tokens) + 1)] + [junk] + tokens[at % (len(tokens) + 1) :]
    return tokens


maybe_junk = st.one_of(st.none(), st.none(), st.sampled_from(JUNK))
insertion = st.builds(
    lambda m, i, k: f"tau{m}(T{i})" + ("" if k is None else f"^{k}"),
    st.integers(0, 3),
    st.integers(0, 3),
    st.none() | st.integers(0, 3),
)


def option(key, values):
    return st.sampled_from([""] + [f"{key}={v}" for v in values])


options = st.tuples(
    option("g", ["0", "1", "2", "x"]),
    st.sampled_from(["d=1", "d=2", "d=1,1", "d=2,0", "d=0", "d=-1", "d=", "d=x", "d=1,1,1"]),
    option("target", ["p2", "p1xp1", "p1", "p3", "gr24", "nope"]),
).map(lambda kv: [x for x in kv if x])
descendant_specs = st.builds(
    lambda ins, opts, junk, at, cached: ("descendant", " ".join(with_junk(ins + ["@"] + opts, junk, at)), cached),
    st.lists(insertion, min_size=1, max_size=3),
    options,
    maybe_junk,
    st.integers(0, 8),
    st.booleans(),
)

field = st.sampled_from(["0", "1", "2", "3", "-1", "x", "", "1/2", "1/0"])
# well-formed records, with classes and slots that may not fit the target
well_formed = st.builds(
    lambda b, c, v: f"{b};{c};{v}",
    st.sampled_from(["1", "2", "1,1", "2,0", "0,1", "0"]),
    st.lists(st.sampled_from(["0", "1", "2", "3"]), min_size=3, max_size=4).map(",".join),
    st.sampled_from(["1", "0", "-3", "1/2", "7/3", "12"]),
)
records = st.one_of(
    well_formed,
    well_formed,
    st.lists(st.lists(field, min_size=1, max_size=4).map(",".join), min_size=1, max_size=4).map(";".join),
    st.sampled_from(JUNK),
)
record_files = st.lists(records, min_size=1, max_size=5).map(lambda lines: "\n".join(lines) + "\n")
seed_requests = st.tuples(
    st.sampled_from(
        [
            ["gw", "--target", "p2", "--dmax", "2", "--seeds", "{file}"],
            ["gw", "--target", "p1xp1", "--dmax", "1,1", "--seeds", "{file}"],
            ["compute", "--target", "p2", "--genus", "1", "--dmax", "2", "--seeds", "{file}"],
            ["compute", "--target", "p1xp1", "--genus", "1", "--dmax", "1,1", "--seeds", "{file}"],
        ]
    ),
    record_files,
)
# genus-2 output starts at degree 4: below it the request is refused before the file is read
virtual2_requests = st.tuples(
    st.just(["compute", "--target", "p2", "--genus", "2", "--dmax", "4", "--virtual2", "{file}"]),
    record_files,
)


def edit_config(text, edits):
    lines = [ln.split(" ") for ln in text.splitlines()]
    for line, token, new in edits:
        words = lines[line % len(lines)]
        words[token % len(words)] = new
    return "\n".join(" ".join(words) for words in lines) + "\n"


geometry_requests = st.tuples(
    st.sampled_from(
        [
            ["gw", "--target", "{file}", "--dmax", "2"],
            ["metric", "--target", "{file}"],
            ["descendant", "tau0(T2)^2 @ d=1", "--target", "{file}", "--no-cache"],
        ]
    ),
    st.builds(
        edit_config,
        st.sampled_from([builtin_geometry(t).to_text() for t in ("p2", "p1xp1")]),
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 8), st.sampled_from(JUNK + ["0", "1", "2", "-2", "4", "cup"])),
            max_size=3,
        ),
    ),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(descendant_specs, seed_requests, virtual2_requests, geometry_requests))
def test_parsers_fail_with_an_exit_code_not_a_traceback(tmp_path, capsys, case):
    """Malformed input exits 2 (usage) or 3 (missing data or out of scope).
    Seed records are data that WDVV checks: a contradiction among them is a
    mismatch (exit 1) with one line saying so."""
    if case[0] == "descendant":
        _, spec, cached = case
        argv = ["descendant", spec, *(["--cache", str(tmp_path / "p.cache")] if cached else ["--no-cache"])]
    else:
        template, text = case
        (tmp_path / "input").write_text(text)
        argv = [a.format(file=tmp_path / "input") for a in template]
    capsys.readouterr()
    code, _ = capture(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code in (0, 2, 3) or code == 1 and err.startswith("seed data fails verification"), (argv, code, err)


@pytest.mark.parametrize(
    "record",
    ["1;0,0,-1;1", "-1;0,0,2;1", "1,1;0,0,2;1", "1;0,0,3000;1"],
    ids=["negative-count", "negative-degree", "two-degrees", "huge-count"],
)
def test_bad_seed_record_is_one_short_line(tmp_path, capsys, record):
    """A record is checked before its insertion key is built: exit 2 with one
    short line naming the line, never a key of the record's size."""
    path = tmp_path / "bad.seeds"
    path.write_text("# header\n" + record + "\n")
    capsys.readouterr()
    assert capture(["gw", "--target", "p2", "--dmax", "2", "--seeds", str(path)]) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: line 2:") and err.count("\n") == 1 and len(err.encode()) < 200, err


def test_hurwitz_dmax_that_is_no_number_is_one_line(capsys):
    capsys.readouterr()
    assert capture(["hurwitz", "--dmax", "abc"]) == (2, "")
    assert capsys.readouterr().err == "error: hurwitz needs a degree D >= 1, got --dmax 'abc'\n"


def test_closed_stdout_ends_quietly():
    """A reader that stops after one line (`| head -1`) leaves stderr empty
    and the exit status of a writer killed by SIGPIPE."""
    # about 190 kB of output, more than a pipe holds: the writer is still at it when the pipe closes
    argv = ["compute", "--target", "p2", "--genus", "0", "--dmax", "14", "--format", "md"]
    cmd = [sys.executable, "-m", "charnum.cli", *argv]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"| d ")
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(), err) == (cli.EXIT_CLOSED_PIPE, b"")


def test_one_process_serves_requests_as_separate_processes_do():
    """The parser is built once per process; a request leaves nothing in it
    that changes the next one."""
    requests = [
        ["hurwitz", "--dmax", "3", "--format", "csv"],
        ["gw", "--target", "p2", "--dmax", "3"],
        ["hurwitz", "--dmax", "3"],
        ["compute", "--target", "p2", "--genus", "0", "--dmax", "2", "--format", "md"],
    ]
    in_process = [capture(argv) for argv in requests]
    separate = [
        subprocess.run([sys.executable, "-m", "charnum.cli", *argv], capture_output=True, check=True).stdout
        for argv in requests
    ]
    assert [(code, text.encode()) for code, text in in_process] == [(0, out) for out in separate]
    assert cli.build_parser() is cli.build_parser()
