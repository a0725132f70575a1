from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import charnum
from charnum import cache as cache_module
from charnum.cache import CacheFile, spec_key
from charnum.descend import DescendantEngine, DescendantSpec
from charnum.gw import wdvv_solve
from charnum.seeds import default_gw_seeds


def test_roundtrip(tmp_path, p2):
    cache = CacheFile(tmp_path / "p2.cache", p2.fingerprint())
    cache.records[((2,), ((1, 1), (0, 2)))] = Fraction(3, 7)
    cache.save()
    body = "g0|2|1.1,0.2 3/7\n"
    assert (tmp_path / "p2.cache").read_text().splitlines()[2:] == [
        f"digest {hashlib.sha256(body.encode()).hexdigest()}",
        body.strip(),
    ]
    fresh = CacheFile(tmp_path / "p2.cache", p2.fingerprint())
    fresh.load()
    assert fresh.records == cache.records


def test_fingerprint_invalidation(tmp_path, p2):
    cache = CacheFile(tmp_path / "p2.cache", p2.fingerprint())
    cache.records[((1,), ((1, 2),))] = Fraction(1)
    cache.save()
    stale = CacheFile(tmp_path / "p2.cache", "deadbeef")
    stale.load()
    assert stale.records == {}


def test_unparsable_record_under_its_digest_is_ignored(tmp_path, p2):
    path = tmp_path / "p2.cache"
    cache = CacheFile(path, p2.fingerprint())
    cache.records[((1,), ((1, 2),))] = Fraction(1)
    cache.save()
    for bad in ("g0|1|1.2 1/0", "g0|1|1.2", "g0|x|1.2 1"):
        path.write_text("".join(f"{ln}\n" for ln in cache._header([bad]) + [bad]))
        fresh = CacheFile(path, p2.fingerprint())
        fresh.load()
        assert fresh.records == {}, bad
        fresh.records[((1,), ((1, 2),))] = Fraction(1)
        fresh.save()
        reread = CacheFile(path, p2.fingerprint())
        reread.load()
        assert reread.records == cache.records


def test_warm_cache_reproduces_values(tmp_path, p2):
    gw = wdvv_solve(p2, default_gw_seeds(p2), 2)
    spec = DescendantSpec(0, (2,), ((0, 2),) * 4 + ((1, 1),))
    cache = CacheFile(tmp_path / "p2.cache", p2.fingerprint())
    cold = DescendantEngine(p2, gw, cache.records).value(spec)
    cache.save()
    warm = CacheFile(tmp_path / "p2.cache", p2.fingerprint())
    warm.load()
    warm_engine = DescendantEngine(p2, gw, warm.records)
    assert warm_engine.value(spec) == cold


def test_spec_key_is_canonical():
    a = spec_key(DescendantSpec(0, (2,), ((1, 1), (0, 2))))
    b = spec_key(DescendantSpec(0, (2,), ((0, 2), (1, 1))))
    assert a == b


def test_each_save_writes_its_own_temporary_file(tmp_path, p2, monkeypatch):
    replaced = []
    real_replace = os.replace

    def spy(src, dst):
        replaced.append(Path(src))
        real_replace(src, dst)

    monkeypatch.setattr(cache_module.os, "replace", spy)
    cache = CacheFile(tmp_path / "p2.cache", p2.fingerprint())
    cache.records[((1,), ((1, 2),))] = Fraction(1)
    cache.save()
    cache.save()
    first, second = replaced
    assert first != second
    assert first.parent == second.parent == tmp_path
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p2.cache"]


WRITER = """
import sys
from fractions import Fraction
from charnum.cache import CacheFile

path, fingerprint, writer = sys.argv[1], sys.argv[2], int(sys.argv[3])
cache = CacheFile(path, fingerprint)
for n in range(200):
    cache.records[((writer,), ((0, n),))] = Fraction(n, writer + 1)
for _ in range(40):
    cache.save()
"""


def test_concurrent_writers_leave_one_whole_file(tmp_path, p2):
    path = tmp_path / "p2.cache"
    env = dict(os.environ, PYTHONPATH=str(Path(charnum.__file__).resolve().parent.parent))
    writers = [
        subprocess.Popen(
            [sys.executable, "-c", WRITER, str(path), p2.fingerprint(), str(w)],
            env=env,
            stderr=subprocess.PIPE,
        )
        for w in range(4)
    ]
    for proc in writers:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode(errors="replace")
    lines = path.read_text().splitlines()
    assert lines[:2] == [f"charnum-cache {charnum.__version__}", f"geometry {p2.fingerprint()}"]
    loaded = CacheFile(path, p2.fingerprint())
    loaded.load()
    assert loaded.records == {
        ((w,), ((0, n),)): Fraction(n, w + 1) for w in range(4) for n in range(200)
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p2.cache"]
