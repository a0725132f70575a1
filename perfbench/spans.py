"""In-memory spans around the calls into charnum's modules, and the
per-layer metrics computed from them.

The tracer patches every binding of each traced function: the module
attribute, every `from .x import f` copy in the other modules and the
package's re-exports, and the class attribute for methods.  A layer row
whose functions saw no call on the workload where it should move fails the
run (`check_coverage`).  A span records
(name, start, end, parent index, request id); spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from math import comb

# span name -> (module, attribute path)
TRACED = {
    "cli.run": ("charnum.cli", "run"),
    "seeds.default_gw_seeds": ("charnum.seeds", "default_gw_seeds"),
    "seeds.load_gw_seeds": ("charnum.seeds", "load_gw_seeds"),
    "seeds.load_genus1_seeds": ("charnum.seeds", "load_genus1_seeds"),
    "seeds.load_virtual2": ("charnum.seeds", "load_virtual2"),
    "seeds.packaged_seed_text": ("charnum.seeds", "packaged_seed_text"),
    "seeds.read_seed_file": ("charnum.seeds", "read_seed_file"),
    "geometry.builtin_geometry": ("charnum.geometry", "builtin_geometry"),
    "metric.deformed_metric": ("charnum.metric", "deformed_metric"),
    "series.series_product": ("charnum.series", "series_product"),
    "series.SeriesTable.init": ("charnum.series", "SeriesTable.__init__"),
    "series.SeriesTable.partial": ("charnum.series", "SeriesTable.partial"),
    "series.SeriesTable.substitute": ("charnum.series", "SeriesTable.substitute"),
    "series.DiffOperator.call": ("charnum.series", "DiffOperator.__call__"),
    "planecurves.charnum_genus0": ("charnum.planecurves", "charnum_genus0"),
    "planecurves.charnum_genus1": ("charnum.planecurves", "charnum_genus1"),
    "planecurves.charnum_genus1_virtual_route": ("charnum.planecurves", "charnum_genus1_virtual_route"),
    "quadric.quadric_genus0": ("charnum.quadric", "quadric_genus0"),
    "quadric.quadric_genus1": ("charnum.quadric", "quadric_genus1"),
    "quadric.hurwitz": ("charnum.quadric", "hurwitz"),
    "descend.genus0_tangency_potential": ("charnum.descend", "genus0_tangency_potential"),
    "descend.genus1_tangency_potential": ("charnum.descend", "genus1_tangency_potential"),
    "descend.DescendantEngine.value": ("charnum.descend", "DescendantEngine.value"),
    "gw.wdvv_solve": ("charnum.gw", "wdvv_solve"),
    "gw.wdvv_instance_residual": ("charnum.gw", "wdvv_instance_residual"),
    "cache.CacheFile.load": ("charnum.cache", "CacheFile.load"),
    "cache.CacheFile.save": ("charnum.cache", "CacheFile.save"),
    "oracles.hurwitz_bruteforce": ("charnum.oracles", "hurwitz_bruteforce"),
    "oracles.cross_check": ("charnum.oracles", "cross_check"),
}

# Layer rows: the traced names of a row, and the workload on which each of
# them must have been called (the workload where the row should move).
LAYER_ROWS = [
    (["series.series_product"], "plane"),
    (["series.SeriesTable.init", "series.SeriesTable.partial", "series.DiffOperator.call",
      "series.SeriesTable.substitute"], "quadric"),
    (["planecurves.charnum_genus0", "planecurves.charnum_genus1"], "plane"),
    (["quadric.quadric_genus0", "quadric.quadric_genus1", "quadric.hurwitz"], "quadric"),
    (["descend.genus0_tangency_potential", "descend.genus1_tangency_potential"], "quadric"),
    (["gw.wdvv_solve", "gw.wdvv_instance_residual"], "wdvv"),
    (["descend.DescendantEngine.value"], "recursion"),
    (["cache.CacheFile.load", "cache.CacheFile.save"], "recursion"),
    (["oracles.hurwitz_bruteforce", "oracles.cross_check"], "recursion"),
    (["cli.run", "seeds", "geometry.builtin_geometry", "metric.deformed_metric"], "recursion"),
]

def group_of(name: str) -> str:
    """Seeds functions are one layer; every other traced function is its own."""
    return "seeds" if name.startswith("seeds.") else name


# -- counters taken at the span boundary ---------------------------------------
# before(tracer, args, kwargs) -> state runs as the call starts,
# after(tracer, state, args, kwargs, result) once it has returned.


def _series_product(tr, state, args, kwargs, result):
    f, g = args
    tr.counts["series.series_product.pairs"] += len(f) * len(g)
    tr.counts["series.series_product.entries_out"] += len(result)


def _table_init(tr, state, args, kwargs, result):
    entries = kwargs.get("entries", args[3] if len(args) > 3 else None)
    tr.counts["series.SeriesTable.init.entries_in"] += len(entries) if entries else 0


def _entries_out(name):
    def after(tr, state, args, kwargs, result):
        tr.counts[f"{name}.entries_out"] += len(result)
    return after


def _wdvv_solve(tr, state, args, kwargs, result):
    tr.counts["gw.wdvv_solve.entries_out"] += len(result.entries)


def _memo_before(tr, args, kwargs):
    # only the outermost call of a request counts the memo entries it adds
    parent = tr.stack[-2] if len(tr.stack) > 1 else None
    if parent is not None and tr.spans[parent][0] == "descend.DescendantEngine.value":
        return None
    return len(args[0].memo)


def _memo_after(tr, state, args, kwargs, result):
    if state is not None:
        tr.memo_new[tr.rid] += len(args[0].memo) - state


def _cache_load(tr, state, args, kwargs, result):
    tr.counts["cache.CacheFile.load.records"] += len(args[0].records)
    tr.loaded.add(tr.rid)


def _cache_save(tr, state, args, kwargs, result):
    tr.counts["cache.CacheFile.save.bytes"] += args[0].path.stat().st_size


def _hurwitz_bruteforce(tr, state, args, kwargs, result):
    d, b = args
    tr.counts["oracles.hurwitz_bruteforce.tuples"] += comb(d, 2) ** b


BEFORE = {"descend.DescendantEngine.value": _memo_before}
AFTER = {
    "series.series_product": _series_product,
    "series.SeriesTable.init": _table_init,
    "descend.genus0_tangency_potential": _entries_out("descend.genus0_tangency_potential"),
    "descend.genus1_tangency_potential": _entries_out("descend.genus1_tangency_potential"),
    "gw.wdvv_solve": _wdvv_solve,
    "descend.DescendantEngine.value": _memo_after,
    "cache.CacheFile.load": _cache_load,
    "cache.CacheFile.save": _cache_save,
    "oracles.hurwitz_bruteforce": _hurwitz_bruteforce,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, request id]
        self.stack: list[int] = []
        self.rid = -1
        self.counts: Counter = Counter()
        self.memo_new: Counter = Counter()  # request id -> memo entries added
        self.loaded: set[int] = set()  # request ids that loaded the cache file
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        before, after = BEFORE.get(name), AFTER.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        insufficient = sys.modules["charnum.gw"].InsufficientSeeds if name == "gw.wdvv_solve" else ()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.rid]
            spans.append(span)
            stack.append(idx)
            state = before(self, args, kwargs) if before else None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except insufficient:
                self.counts["gw.wdvv_solve.insufficient"] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if after:
                after(self, state, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of every traced function in the package."""
        wrapped = {}  # id(original) -> wrapper, which holds the original, so ids stay unique
        for name, (modname, path) in TRACED.items():
            owner = sys.modules[modname]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            fn = inspect.getattr_static(owner, attr)
            wrapped[id(fn)] = self._wrap(name, fn)
        for holder in _binding_holders():
            for attr, value in list(vars(holder).items()):
                if id(value) in wrapped:
                    self._patches.append((holder, attr, value))
                    setattr(holder, attr, wrapped[id(value)])

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._patches):
            setattr(holder, attr, value)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def layer_metrics(self, names: list[str], untraced_jobs_per_s: float,
                      traced_jobs_per_s: float) -> dict[str, float]:
        """The per-layer metrics of BENCHMARK.json, by name."""
        stats = span_stats(self.spans)
        c = self.counts
        m = {}
        for metric in names:
            base, _, field = metric.rpartition(".")
            if field in ("calls", "busy_s", "self_s"):
                m[metric] = stats.get(base, {}).get(field, 0)
            else:
                m[metric] = c[metric]

        def calls(name):
            return stats.get(name, {}).get("calls", 0)

        m["series.series_product.out_per_pair"] = _ratio(
            c["series.series_product.entries_out"], c["series.series_product.pairs"])
        m["gw.solved_per_residual"] = _ratio(c["gw.wdvv_solve.entries_out"], calls("gw.wdvv_instance_residual"))
        memo_new = sum(self.memo_new.values())
        m["descend.memo_new"] = memo_new
        m["descend.memo_miss_ratio"] = _ratio(memo_new, calls("descend.DescendantEngine.value"))
        warm = sum(1 for rid in self.loaded if self.memo_new[rid] == 0)
        m["cache.warm_ratio"] = _ratio(warm, len(self.loaded))
        m["trace.overhead_jobs_per_s"] = traced_jobs_per_s - untraced_jobs_per_s
        return m

    def check_coverage(self, workload: str) -> list[str]:
        """Traced names that saw no call on the workload where their row
        should move."""
        stats = span_stats(self.spans)
        return [n for names, on in LAYER_ROWS if on == workload for n in names
                if stats.get(n, {}).get("calls", 0) == 0]


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _binding_holders():
    """Modules of the package and the classes defined in them."""
    for modname, mod in list(sys.modules.items()):
        if modname != "charnum" and not modname.startswith("charnum."):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if inspect.isclass(value) and value.__module__ == modname:
                yield value


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover."""
    children = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((end - start) - covered)
    return out


def span_stats(spans) -> dict[str, dict]:
    """Per traced name, and per group: calls, busy_s (time with at least one
    call active, so recursion is not counted twice) and self_s."""
    selfs = self_times(spans)
    stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent, _) in enumerate(spans):
        keys = {name, group_of(name)}
        outer = set(keys)
        p = parent
        while p >= 0 and outer:
            pname = spans[p][0]
            outer.discard(pname)
            outer.discard(group_of(pname))
            p = spans[p][3]
        for k in keys:
            stats[k]["calls"] += 1
            stats[k]["self_s"] += selfs[i]
            if k in outer:
                stats[k]["busy_s"] += end - start
    return dict(stats)


def top_self(spans, n: int = 5) -> list[tuple[str, float]]:
    """The traced functions with the largest self time."""
    stats = span_stats(spans)
    rows = [(k, v["self_s"]) for k, v in stats.items() if k in TRACED]
    return sorted(rows, key=lambda kv: -kv[1])[:n]
