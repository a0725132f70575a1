"""Benchmark of the charnum command line.

    python3 perfbench/run.py --workload {plane,quadric,wdvv,recursion,all}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout: it imports charnum from `src/`
and needs no installation.  One client replays a workload's requests in a
closed loop, calling `charnum.cli.run(argv, out)` in this process.  A run
is a fixed number of whole passes over the workload's pool, enough for 22
requests (see workloads.pass_count), whatever S is: every commit is timed on
the same requests.  On a 2-vCPU x86 machine a run takes 13 to 52 seconds,
wdvv the longest.  Each request's output is checked against `refs.json` before its
time counts.

Before timing, a run checks the literature anchors, launches
`python -m charnum.cli metric --target p1` several times (the median wall
time is `setup_s`) and checks that a child process prints the same bytes
as the in-process call.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run (see spans.py).  The last line of stdout is one JSON object;
a longer record of the run goes to perfbench/out/.  The exit code is 0 only
when every output is correct.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
REFS = HERE / "refs.json"
BENCHMARK = ROOT / "BENCHMARK.json"  # the metric names and units, and each workload's reason

sys.path.insert(0, str(HERE))
import anchors  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_ARGV = ("metric", "--target", "p1")
SETUP_LAUNCHES = 7
CHILD_TIMEOUT_S = 60


def load_charnum():
    """Import charnum.cli from the checkout's src/ directory."""
    src = ROOT / "src"
    if not (src / "charnum" / "__init__.py").is_file():
        raise SystemExit(f"charnum sources not found under {src}")
    sys.path.insert(0, str(src))
    import charnum
    import charnum.cli

    if Path(charnum.__file__).resolve().parent != (src / "charnum").resolve():
        raise SystemExit(f"imported charnum from {charnum.__file__}, not from {src}")
    return charnum.cli


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def call(cli, argv) -> tuple[int, str, str, float]:
    """One in-process request: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    # Start every request with the collector's generations empty, as in a
    # fresh CLI process: the collections a request triggers, and so its
    # time, then do not depend on which requests ran before it.
    gc.collect()
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.run(list(argv), out)
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def child(cli, argv, cwd: Path) -> tuple[int, bytes, float]:
    """One `python -m charnum.cli` process: (exit code, stdout, wall seconds)."""
    src = Path(sys.modules["charnum"].__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), CHARNUM_CACHE_DIR=str(cwd))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "charnum.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout, time.perf_counter() - start


def matches(req: workloads.Request, ref: dict | None, code: int, out: str, err: str) -> bool:
    """The digest gate: exit code, stdout digest and expected stderr."""
    return (ref is not None and code == ref["exit"] and digest(out) == ref["sha256"]
            and req.expect_stderr in err)


def execute(cli, req: workloads.Request, cache: Path) -> tuple[int, str, str, float]:
    argv = req.argv + (("--cache", str(cache)) if req.cached else ())
    try:
        return call(cli, argv)
    except Exception as e:  # a traceback is a failed request, not a crashed benchmark
        return -1, "", f"{type(e).__name__}: {e}", 0.0


def run_passes(cli, passes, refs, work: Path, tracer=None, rid0: int = 0) -> dict:
    """Replay whole passes; each pass starts with an empty cache file."""
    samples, failures = [], []
    start = time.perf_counter()
    rid = rid0
    for reqs in passes:
        cache = work / f"from-request-{rid}.cache"
        for req in reqs:
            if tracer is not None:
                tracer.rid = rid
            code, out, err, seconds = execute(cli, req, cache)
            ref = refs.get(req.key)
            ok = matches(req, ref, code, out, err)
            samples.append({"key": req.key, "kind": req.kind, "group": workloads.group(req),
                            "seconds": seconds, "ok": ok})
            if not ok:
                failures.append(f"{req.key}: exit {code}, stdout sha256 {digest(out)}, reference {ref}, "
                                f"stderr {err.strip()[:200]!r}")
            rid += 1
    elapsed = time.perf_counter() - start
    good = sorted(s["seconds"] for s in samples if s["ok"])
    return {"samples": samples, "failures": failures, "elapsed_s": elapsed, "good": good,
            "jobs_per_s": len(good) / elapsed}


def median_of_groups(samples: list[dict]) -> float:
    """Median latency: each request group's median across passes first,
    then the median of those, so it does not hinge on the extreme samples
    of two neighbouring groups."""
    by_group: dict = {}
    for s in samples:
        by_group.setdefault(s["group"], []).append(s["seconds"])
    return statistics.median(statistics.median(v) for v in by_group.values())


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: the
    eleventh-largest latency, and the percentile it stands for."""
    n = len(latencies)
    if n < 11:
        return max(latencies), 100.0
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n


def machine_facts() -> dict:
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": cpu,
            "platform": platform.platform(), "commit": git_commit(),
            "charnum_version": sys.modules["charnum"].__version__, "loadavg_start": os.getloadavg()}


def git_commit(git: Path = ROOT / ".git") -> str:
    """The checked-out commit, from a loose or a packed ref; "unknown" when
    there is no git repository."""
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError):
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return "unknown"


def bench(cli, workload: workloads.Workload, seed: int, seconds: int, trace: bool,
          work: Path) -> tuple[dict, dict]:
    """One run: the result line and the longer record."""
    refs = json.loads(REFS.read_text())
    spec = json.loads(BENCHMARK.read_text())
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    record = {"workload": workload.name, "why": why, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": machine_facts()}
    problems = []

    # warm-up: fills the lazily built geometries before anything is timed
    code, setup_out, _, _ = call(cli, SETUP_ARGV)
    setup = []
    for _ in range(SETUP_LAUNCHES):
        ccode, stdout, wall = child(cli, SETUP_ARGV, work)
        setup.append(wall)
        if ccode != code or stdout != setup_out.encode():
            problems.append(f"child stdout differs: {' '.join(SETUP_ARGV)}")
    req = workloads.Request(workload.byte_check, "byte check")
    code, out, err, _ = execute(cli, req, work / "byte-check.cache")
    ccode, stdout, _ = child(cli, workload.byte_check, work)
    if not matches(req, refs.get(req.key), code, out, err) or ccode != code or stdout != out.encode():
        problems.append(f"child stdout differs or mismatches its reference: {req.key}")
    problems += anchors.check(lambda argv: call(cli, argv)[:2])

    n = workloads.pass_count(workload)
    if trace:
        k = max(1, n // 2)
        passes = workloads.schedule(workload, seed, 2 * k)
        plain = run_passes(cli, passes[:k], refs, work)
        tracer = spans.Tracer()
        with tracer:
            traced = run_passes(cli, passes[k:], refs, work, tracer, rid0=len(plain["samples"]))
        runs = [plain, traced]
        missing = tracer.check_coverage(workload.name)
        if missing:
            problems.append(f"no traced calls on {workload.name}: {', '.join(missing)}")
        layer = tracer.layer_metrics([m["name"] for m in spec["per_layer"]], plain["jobs_per_s"],
                                     traced["jobs_per_s"])
        metrics = {m["name"]: (layer[m["name"]], m["unit"]) for m in spec["per_layer"]}
        record["top_self_s"] = spans.top_self(tracer.spans)
        record["untraced_jobs_per_s"] = plain["jobs_per_s"]
        record["traced_jobs_per_s"] = traced["jobs_per_s"]
        record["span_file"] = write_spans(tracer.spans, workload.name, seed)
    else:
        passes = workloads.schedule(workload, seed, n)
        plain = run_passes(cli, passes, refs, work)
        runs = [plain]
        good = plain["good"]
        tail_s, tail_pct = tail(good) if good else (0.0, 0.0)
        ok = [s for s in plain["samples"] if s["ok"]]
        metrics = {
            "jobs_per_s": (plain["jobs_per_s"], "1/s"),
            "job_p50_s": (median_of_groups(ok) if ok else 0.0, "s"),
            "job_tail_s": (tail_s, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        record.update(samples_ok=len(good), tail_percentile=tail_pct)

    attempted = sum(len(r["samples"]) for r in runs)
    failed = sum(len(r["failures"]) for r in runs)
    problems += [f for r in runs for f in r["failures"]]
    record["machine"]["loadavg_end"] = os.getloadavg()
    record.update(
        passes=len(passes), mix=workloads.mix(passes), setup_samples_s=setup,
        error_rate=failed / attempted, problems=problems,
        samples=[s for r in runs for s in r["samples"]],
    )
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, record


def write_spans(span_list, workload: str, seed: int) -> str:
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for name, start, end, parent, rid in span_list:
            fh.write(json.dumps([name, start, end, parent, rid]) + "\n")
    return str(path.relative_to(ROOT))


def run_all(args) -> int:
    """Each workload in its own fresh process; one table of every metric."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise SystemExit(f"workload {name} failed with exit code {proc.returncode}")
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
        for k, v in res["metrics"].items():
            print(f"{name:<10} {k:<48} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    cli = load_charnum()
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir()
    try:
        result, record = bench(cli, workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                               bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rec_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    rec_path.write_text(json.dumps(record, indent=1) + "\n")
    for problem in record["problems"]:
        sys.stderr.write(f"MISMATCH {problem}\n")
    if args.trace:
        for name, self_s in record["top_self_s"]:
            sys.stderr.write(f"self_s {name:<40} {self_s:.4f} s\n")
    else:
        sys.stderr.write(f"{args.workload}: samples {record['samples_ok']}, tail at "
                         f"p{record['tail_percentile']:.1f}, error_rate {record['error_rate']:.3f}\n")
    for name, m in result["metrics"].items():
        print(f"{args.workload:<10} {name:<48} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
