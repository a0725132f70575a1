"""On-disk memo cache for descendant invariants.

One file per geometry; a header pins the artifact version, the geometry
fingerprint and a digest of the record lines, so a changed ring silently
invalidates old values, and a file whose records were edited or do not
parse is ignored and rewritten on the next save.  A write
holds an exclusive lock on the cache's directory while it reloads the file,
merges its own records in and replaces the file atomically through its own
temporary file, so concurrent writers keep each other's records; reads take
a shared lock.
Reload-then-recompute yields identical tables because values are exact.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
import tempfile
from pathlib import Path

from . import __version__
from .descend import DescendantSpec
from .series import Rat, format_rat, parse_rat

__all__ = ["CacheFile", "default_cache_dir", "spec_key"]

ENV_CACHE_DIR = "CHARNUM_CACHE_DIR"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "charnum"


def spec_key(spec: DescendantSpec) -> str:
    return _format_key(spec.genus, spec.beta, spec.insertions)


def _format_key(genus: int, beta, insertions) -> str:
    ins = ",".join(f"{m}.{c}" for m, c in insertions)
    return f"g{genus}|{','.join(map(str, beta))}|{ins}"


def _parse_key(text: str) -> tuple:
    _, beta, ins = text.split("|")
    beta_t = tuple(int(x) for x in beta.split(",") if x)
    ins_t = tuple(tuple(int(y) for y in pair.split(".")) for pair in ins.split(",") if pair)
    return (beta_t, ins_t)


def _digest(records: list[str]) -> str:
    return hashlib.sha256("".join(f"{ln}\n" for ln in records).encode()).hexdigest()


class CacheFile:
    def __init__(self, path: Path, fingerprint: str):
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.records: dict[tuple, Rat] = {}

    def load(self) -> None:
        if not self.path.exists():
            return
        with open(self.path, errors="replace") as fh:  # undecodable bytes fail the digest
            fcntl.flock(fh, fcntl.LOCK_SH)
            lines = fh.read().splitlines()
            fcntl.flock(fh, fcntl.LOCK_UN)
        header, body = lines[:3], lines[3:]
        if header != self._header(body):
            return  # stale or edited: ignore, will be rewritten
        try:
            records = {}
            for ln in body:
                key, val = ln.rsplit(" ", 1)
                records[_parse_key(key)] = parse_rat(val)
        except (ValueError, ZeroDivisionError):
            return  # a record that does not parse: ignore the file like a stale one
        self.records.update(records)

    def _header(self, body: list[str]) -> list[str]:
        return [f"charnum-cache {__version__}", f"geometry {self.fingerprint}", f"digest {_digest(body)}"]

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        dir_fd = os.open(self.path.parent, os.O_RDONLY)
        try:
            fcntl.flock(dir_fd, fcntl.LOCK_EX)  # released when dir_fd closes
            saved = CacheFile(self.path, self.fingerprint)
            saved.load()  # what other writers saved since this cache was loaded
            for key, val in saved.records.items():  # in place: the records may be a live memo
                self.records.setdefault(key, val)
            body = [
                f"{_format_key(0, beta, ins)} {format_rat(val)}" for (beta, ins), val in sorted(self.records.items())
            ]
            # a private temporary file per save: concurrent writers never share one
            fd, tmp = tempfile.mkstemp(prefix=f".{self.path.name}.", suffix=".tmp", dir=self.path.parent)
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write("".join(f"{ln}\n" for ln in self._header(body) + body))
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, self.path)
            except BaseException:
                Path(tmp).unlink(missing_ok=True)
                raise
        finally:
            os.close(dir_fd)
