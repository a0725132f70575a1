"""Request pools and the seeded schedule of the charnum benchmark.

Every request is a real `charnum` command line.  A pool is finite; the seed
picks only the order of a pass, the output formats of the plane requests,
and in `recursion` which descendants are repeated.  Every pass of one
workload has the same length and the same number of requests of each kind,
so runs made with different seeds do the same amount of work.
"""

from __future__ import annotations

import math
import random
import shlex
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable

FORMATS = ("json", "csv", "md")
# With at least 22 samples the tail (ten samples beyond it) lies above the
# median.
MIN_SAMPLES = 22


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    kind: str
    cached: bool = False  # descendant that reads and writes the pass's cache file
    repeat: bool = False  # exact repeat of an earlier cached request in the pass
    no_cache: bool = False
    expect_exit: int = 0
    expect_stderr: str = ""

    @property
    def key(self) -> str:
        """Reference-digest key: the command line without the cache path."""
        return shlex.join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    byte_check: tuple[str, ...]  # request whose child-process stdout must equal the in-process bytes
    make_pass: Callable[[random.Random], list[Request]]
    pool: Callable[[], list[Request]]  # every distinct request a pass can hold


# -- plane: p2 characteristic numbers -----------------------------------------

PLANE = [(0, d) for d in (5, 6, 7, 8)] + [(1, d) for d in (3, 4, 5)]


def _plane(genus: int, d: int, fmt: str) -> Request:
    argv = ("compute", "--target", "p2", "--genus", str(genus), "--dmax", str(d), "--format", fmt)
    return Request(argv, f"compute p2 g{genus} d{d}")


def plane_pass(rng: random.Random) -> list[Request]:
    reqs = [_plane(g, d, rng.choice(FORMATS)) for g, d in PLANE]
    rng.shuffle(reqs)
    return reqs


def plane_pool() -> list[Request]:
    return [_plane(g, d, f) for g, d in PLANE for f in FORMATS]


# -- quadric: p1xp1 characteristic numbers ------------------------------------

QUADRIC = [(0, "2,2"), (0, "3,3"), (0, "4,2"), (1, "2,2"), (1, "3,2"), (1, "2,3")]


def _quadric(genus: int, dmax: str) -> Request:
    argv = ("compute", "--target", "p1xp1", "--genus", str(genus), "--dmax", dmax)
    return Request(argv, f"compute p1xp1 g{genus} d{dmax}")


def quadric_pass(rng: random.Random) -> list[Request]:
    reqs = quadric_pool()
    rng.shuffle(reqs)
    return reqs


def quadric_pool() -> list[Request]:
    return [_quadric(g, d) for g, d in QUADRIC]


# -- wdvv: genus-0 Gromov-Witten tables ---------------------------------------

WDVV = [("p3", "5"), ("p4", "3"), ("p5", "3"), ("p6", "2"), ("p1xp1", "5,5"), ("gr24", "1")]
INSUFFICIENT = "insufficient seed data"


def wdvv_pool() -> list[Request]:
    reqs = [Request(("gw", "--target", t, "--dmax", d), f"gw {t} d{d}") for t, d in WDVV]
    # gr24 in degree 2 is not determined by the packaged seeds: the expected
    # outcome is a refusal with exit code 3.
    reqs.append(Request(("gw", "--target", "gr24", "--dmax", "2"), "gw gr24 d2 (refused)",
                        expect_exit=3, expect_stderr=INSUFFICIENT))
    return reqs


def wdvv_pass(rng: random.Random) -> list[Request]:
    reqs = wdvv_pool()
    rng.shuffle(reqs)
    return reqs


# -- recursion: descendants, the cache file and the verify suites --------------

# p2 genus-0 descendants; the value of each is `insertions @ g=0 d=<d>`.
G0 = {
    3: ["tau0(T2)^6 tau1(T1)^2", "tau0(T2)^4 tau1(T1)^4", "tau0(T2)^2 tau1(T1)^6", "tau0(T2)^6 tau2(T1)^1"],
    4: ["tau0(T2)^7 tau1(T1)^4", "tau0(T2)^5 tau1(T1)^6", "tau0(T2)^3 tau1(T1)^8",
        "tau0(T2)^8 tau1(T2)^1 tau1(T1)^1"],
    5: ["tau0(T2)^12 tau1(T1)^2", "tau0(T2)^10 tau1(T1)^4", "tau0(T2)^8 tau1(T1)^6", "tau0(T2)^6 tau1(T1)^8"],
    6: ["tau0(T2)^15 tau1(T1)^2", "tau0(T2)^13 tau1(T1)^4", "tau0(T2)^11 tau1(T1)^6", "tau0(T2)^9 tau1(T1)^8",
        "tau0(T2)^14 tau2(T1)^1 tau1(T1)^1"],
}
G1 = ["tau0(T2)^5 tau1(T1)^1 @ g=1 d=2", "tau0(T2)^9 @ g=1 d=3", "tau0(T2)^11 tau1(T1)^1 @ g=1 d=4"]
SUITES = ("hurwitz", "p2-genus0", "p2-genus1", "metric")
REPEATS = 10  # exact repeats per pass: warm reads of the cache file


def _g0(d: int, ins: str, no_cache: bool = False) -> Request:
    spec = f"{ins} @ g=0 d={d}"
    if no_cache:
        return Request(("descendant", spec, "--no-cache"), f"descendant g0 d{d} no-cache", no_cache=True)
    return Request(("descendant", spec), f"descendant g0 d{d} cached", cached=True)


def recursion_pool() -> list[Request]:
    reqs = [_g0(d, ins, nc) for d, specs in G0.items() for ins in specs for nc in (False, True)]
    reqs += [Request(("descendant", s), "descendant g1") for s in G1]
    reqs += [Request(("verify", "--suite", s), f"verify {s}") for s in SUITES]
    return reqs


def recursion_pass(rng: random.Random) -> list[Request]:
    # The cached requests keep the pool's order (ascending degree) and the
    # seed only places them among the others: a cached request reuses what
    # the cached requests before it stored, so a seed-dependent order would
    # change what each request costs.  Every descendant also runs once
    # bypassing the cache, at full cold cost.
    cached = [_g0(d, ins) for d, specs in G0.items() for ins in specs]
    others = [_g0(d, ins, no_cache=True) for d, specs in G0.items() for ins in specs]
    others += [Request(("descendant", s), "descendant g1") for s in G1]
    others += [Request(("verify", "--suite", s), f"verify {s}") for s in SUITES]
    rng.shuffle(others)
    slots = set(rng.sample(range(len(cached) + len(others)), len(cached)))
    fill, rest = iter(cached), iter(others)
    reqs = [next(fill) if i in slots else next(rest) for i in range(len(cached) + len(others))]
    for first in rng.sample(cached, REPEATS):
        at = rng.randint(reqs.index(first) + 1, len(reqs))
        reqs.insert(at, replace(first, kind="descendant g0 repeat", repeat=True))
    return reqs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("plane", ("compute", "--target", "p2", "--genus", "1", "--dmax", "3", "--format", "md"),
                 plane_pass, plane_pool),
        Workload("quadric", ("compute", "--target", "p1xp1", "--genus", "0", "--dmax", "2,2"),
                 quadric_pass, quadric_pool),
        Workload("wdvv", ("gw", "--target", "gr24", "--dmax", "1"), wdvv_pass, wdvv_pool),
        Workload("recursion", ("descendant", "tau0(T2)^6 tau1(T1)^2 @ g=0 d=3", "--no-cache"),
                 recursion_pass, recursion_pool),
    )
}


def pass_count(workload: Workload) -> int:
    """Passes in one run: the fewest whole passes that give MIN_SAMPLES
    requests (plane 4, quadric 4, wdvv 4, recursion 1).

    The count does not depend on how fast this commit or machine runs, so
    every commit is measured on the same requests and the tail latency is
    always taken at the same percentile.
    """
    return math.ceil(MIN_SAMPLES / len(workload.make_pass(random.Random(0))))


def schedule(workload: Workload, seed: int, passes: int) -> list[list[Request]]:
    rng = random.Random(f"{workload.name}:{seed}")
    return [workload.make_pass(rng) for _ in range(passes)]


def group(req: Request) -> tuple:
    """Requests of one group cost the same: the same kind and command line,
    whatever the output format."""
    return req.kind, tuple(a for a in req.argv if a not in FORMATS)


def mix(passes: list[list[Request]]) -> dict:
    """Request-mix histogram and the shares of repeats and cache bypasses."""
    reqs = [r for p in passes for r in p]
    return {
        "requests": len(reqs),
        "histogram": dict(sorted(Counter(r.kind for r in reqs).items())),
        "repeat_share": sum(r.repeat for r in reqs) / len(reqs),
        "no_cache_share": sum(r.no_cache for r in reqs) / len(reqs),
    }
