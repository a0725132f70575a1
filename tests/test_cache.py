from __future__ import annotations

from fractions import Fraction

from charnum.cache import CacheFile, spec_key
from charnum.descend import DescendantEngine, DescendantSpec
from charnum.gw import wdvv_solve
from charnum.seeds import default_gw_seeds


def test_roundtrip(tmp_path, p2):
    cache = CacheFile(tmp_path / "p2.cache", p2.fingerprint())
    cache.records[((2,), ((1, 1), (0, 2)))] = Fraction(3, 7)
    cache.save()
    assert (tmp_path / "p2.cache").read_text().splitlines()[2:] == ["g0|2|1.1,0.2 3/7"]
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


def test_warm_cache_reproduces_values(tmp_path, p2):
    gw = wdvv_solve(p2, default_gw_seeds(p2), 2)
    spec = DescendantSpec(0, (2,), ((0, 2),) * 4 + ((1, 1),))
    engine = DescendantEngine(p2, gw)
    cold = engine.value(spec)
    cache = CacheFile(tmp_path / "p2.cache", p2.fingerprint())
    cache.absorb(engine.memo)
    cache.save()
    warm_engine = DescendantEngine(p2, gw)
    warm = CacheFile(tmp_path / "p2.cache", p2.fingerprint())
    warm.load()
    warm_engine.memo.update(warm.seed_memo())
    assert warm_engine.value(spec) == cold


def test_spec_key_is_canonical():
    a = spec_key(DescendantSpec(0, (2,), ((1, 1), (0, 2))))
    b = spec_key(DescendantSpec(0, (2,), ((0, 2), (1, 1))))
    assert a == b
