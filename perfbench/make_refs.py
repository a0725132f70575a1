"""Regenerate refs.json, the reference output of every request in every pool.

    python3 perfbench/make_refs.py

The literature anchors are checked first; no reference is written unless
they all hold.  A reference is the exit code and the sha256 of stdout of a
request run in-process; descendant requests that use a cache file run
against an empty one.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from anchors import check
from workloads import WORKLOADS


def main() -> int:
    cli = run.load_charnum()
    problems = check(lambda argv: run.call(cli, argv)[:2])
    if problems:
        sys.stderr.write("\n".join(problems) + "\n")
        return 1
    run.OUT_DIR.mkdir(exist_ok=True)
    work = run.OUT_DIR / "make-refs"
    work.mkdir(exist_ok=True)
    refs = {}
    try:
        for w in WORKLOADS.values():
            for req in w.pool():
                code, out, err, _ = run.execute(cli, req, work / f"{len(refs)}.cache")
                if code != req.expect_exit or req.expect_stderr not in err:
                    sys.stderr.write(f"{req.key}: exit {code}, stderr {err.strip()!r}\n")
                    return 1
                refs[req.key] = {"exit": code, "sha256": run.digest(out)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"{len(refs)} references written to {run.REFS.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
