"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
from collections import Counter

import pytest

import run
import spans
import workloads
from workloads import WORKLOADS, schedule

REFS = json.loads(run.REFS.read_text())


def _base(passes):
    """Requests of a schedule as a multiset, formats ignored, repeats left out."""
    return Counter(
        tuple(a for a in r.argv if a not in workloads.FORMATS) for p in passes for r in p if not r.repeat
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_schedule_is_deterministic_per_seed(name):
    w = WORKLOADS[name]
    assert schedule(w, 7, 3) == schedule(w, 7, 3)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seeds_differ_only_in_order_and_repeats(name):
    w = WORKLOADS[name]
    a, b = schedule(w, 1, 3), schedule(w, 2, 3)
    assert a != b
    assert [len(p) for p in a] == [len(p) for p in b]
    assert Counter(r.kind for p in a for r in p) == Counter(r.kind for p in b for r in p)
    assert _base(a) == _base(b)


def test_recursion_repeats_follow_their_first_request():
    for seed in range(20):
        for reqs in schedule(WORKLOADS["recursion"], seed, 2):
            for i, r in enumerate(reqs):
                if r.repeat:
                    assert any(q.key == r.key and q.cached and not q.repeat for q in reqs[:i])
            assert sum(r.repeat for r in reqs) == workloads.REPEATS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_request_has_a_reference(name):
    w = WORKLOADS[name]
    keys = {r.key for p in schedule(w, 3, 4) for r in p} | {workloads.Request(w.byte_check, "").key}
    assert keys <= {r.key for r in w.pool()} <= set(REFS)


def test_digest_gate_flags_a_perturbed_output():
    req = workloads.Request(("gw", "--target", "p2", "--dmax", "2"), "gw")
    out = '[{"d":1,"insertions":"T2^2","value":"1"},{"d":2,"insertions":"T2^5","value":"1"}]\n'
    ref = {"exit": 0, "sha256": run.digest(out)}
    assert run.matches(req, ref, 0, out, "")
    assert not run.matches(req, ref, 0, out.replace('"1"}]', '"2"}]'), "")
    assert not run.matches(req, ref, 1, out, "")
    assert not run.matches(req, None, 0, out, "")
    refused = workloads.wdvv_pool()[-1]
    ref3 = {"exit": 3, "sha256": run.digest("")}
    assert run.matches(refused, ref3, 3, "", "insufficient seed data: beta=(2,)\n")
    assert not run.matches(refused, ref3, 3, "", "error: something else\n")


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]; b holds a
    # recursive b [6, 7]
    tree = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("c", 2.0, 3.0, 1, 0),
        ("b", 5.0, 9.0, 0, 0),
        ("b", 6.0, 7.0, 3, 0),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 3.0, 1.0]
    stats = spans.span_stats(tree)
    assert stats["b"] == {"calls": 2, "busy_s": 4.0, "self_s": 4.0}
    assert stats["root"]["self_s"] + sum(s["self_s"] for k, s in stats.items() if k != "root") == 10.0


def test_tail_is_the_eleventh_largest():
    lat = [float(i) for i in range(1, 41)]
    value, pct = run.tail(lat)
    assert value == 30.0 and sum(x > value for x in lat) == 10 and pct == 75.0


def test_pass_count_gives_enough_samples():
    counts = {name: workloads.pass_count(w) for name, w in WORKLOADS.items()}
    assert counts == {"plane": 4, "quadric": 4, "wdvv": 4, "recursion": 1}
    for name, w in WORKLOADS.items():
        assert counts[name] * len(w.make_pass(workloads.random.Random(0))) >= workloads.MIN_SAMPLES


def test_median_takes_each_group_median_first():
    # two groups of four passes: the plain median of all eight samples would
    # be the mean of the slowest "a" and the fastest "b"
    samples = [{"group": g, "seconds": t} for g, ts in (("a", (1.0, 1.1, 1.2, 5.0)), ("b", (2.0, 2.1, 2.2, 2.3)))
               for t in ts]
    assert run.median_of_groups(samples) == pytest.approx((1.15 + 2.15) / 2)
    assert run.median_of_groups(samples[:4] + samples[4:5]) == pytest.approx((1.15 + 2.0) / 2)


def test_commit_from_loose_and_packed_refs(tmp_path):
    sha = "0123456789abcdef0123456789abcdef01234567"
    assert run.git_commit(tmp_path / ".git") == "unknown"
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    assert run.git_commit(git) == "unknown"
    (git / "packed-refs").write_text(f"# pack-refs with: peeled\n{sha} refs/heads/main\n")
    assert run.git_commit(git) == sha
    (git / "refs" / "heads" / "main").write_text(sha.upper() + "\n")
    assert run.git_commit(git) == sha.upper()
    (git / "HEAD").write_text(sha + "\n")
    assert run.git_commit(git) == sha


def test_every_workload_has_a_reason_in_the_benchmark_file():
    bench = json.loads(run.BENCHMARK.read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_tracer_patches_every_binding_and_restores_them():
    cli = run.load_charnum()
    import charnum
    import charnum.gw

    original = charnum.gw.wdvv_solve
    tracer = spans.Tracer()
    with tracer:
        assert cli.wdvv_solve is not original and charnum.wdvv_solve is not original
        code, out, _, _ = run.call(cli, ["gw", "--target", "p2", "--dmax", "3"])
    assert code == 0 and out.startswith('[{"d":1')
    assert cli.wdvv_solve is original and charnum.wdvv_solve is original
    names = {s[0] for s in tracer.spans}
    assert {"cli.run", "gw.wdvv_solve", "geometry.builtin_geometry"} <= names
    assert all(s[3] == -1 for s in tracer.spans if s[0] == "cli.run")
