from __future__ import annotations

import io
import json
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from charnum.geometry import builtin_geometry, in_box
from charnum.seeds import packaged_seed_text

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


def test_genus2_with_virtual_file(tmp_path):
    path = tmp_path / "virt.seeds"
    path.write_text("4;13,0,0;0\n")
    code, text = capture(
        ["compute", "--target", "p2", "--genus", "2", "--dmax", "4", "--virtual2", str(path)]
    )
    assert code == 0
    json.loads(text)


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


def test_descendant_on_quadric():
    code, text = capture(
        ["descendant", "tau0(T3)^3 @ g=0 d=1,1 target=p1xp1", "--no-cache"]
    )
    assert (code, text.strip()) == (0, "1")


def test_gr24_insufficiency_exit3():
    code, _ = capture(["gw", "--target", "gr24", "--dmax", "2"])
    assert code == 3


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
